// A complete message-driven monitoring session over lossy links.
//
// ServerEndpoint and ReaderEndpoint exchange the wire messages of
// messages.h across two Links on one EventQueue, executing `rounds` TRP
// monitoring rounds end to end:
//
//   reader --ChallengeRequest(round)-->  server          (retry on timeout)
//   reader <--TrpChallenge(f, r)-------  server          (idempotent per round)
//   [reader scans the tag field: TimingModel-priced air time]
//   reader --BitstringReport----------->  server          (retry on timeout)
//   reader <--VerdictAck---------------  server
//
// Both request and report are idempotent (keyed by round): the server caches
// the round's challenge and verdict and replays them for duplicates, so
// retransmissions over a dropping link cannot double-issue randomness or
// double-count rounds — the property the paper needs for "a new (f, r) each
// time" to stay well-defined under an unreliable backhaul.
//
// Retries follow capped exponential backoff with jitter; for UTRP the
// schedule is deadline-aware (while the Alg. 5 budget has not expired, a
// retry is never postponed past it). A SessionConfig may carry a
// fault::FaultPlan, which layers burst loss, corruption, duplication,
// reordering, scripted reader crashes, and deadline-clock skew on top of the
// links; the endpoints survive all of it: corrupt frames are rejected by the
// framing checksum and counted (never thrown out of the event queue), and a
// crashed reader cold-restarts into the current round via the server's
// idempotent challenge cache.
//
// run_trp_session drives the whole exchange and reports per-round verdicts
// plus link statistics; when a round cannot complete, SessionOutcome names
// the specific FailureReason instead of a bare `completed == false`.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "radio/channel.h"
#include "sim/event_queue.h"
#include "wire/link.h"
#include "wire/messages.h"

namespace rfid::wire {

struct SessionConfig {
  LinkConfig uplink;              // reader -> server
  LinkConfig downlink;            // server -> reader
  /// Base retry timeout: the first retransmission fires this long after a
  /// send; subsequent ones back off exponentially.
  double retry_timeout_us = 50000.0;
  double backoff_multiplier = 2.0;  // per-retry growth factor (1.0 = fixed)
  double backoff_cap_us = 0.0;      // ceiling; 0 = 16x the base timeout
  /// Uniform jitter added to each backoff delay, as a fraction of it
  /// (de-synchronizes retry storms; drawn from a dedicated RNG stream).
  double backoff_jitter = 0.1;
  std::uint32_t max_retries = 8;  // per message, per round
  std::string group_name = "group";
  /// UTRP only: wall-clock budget from challenge issue to report receipt
  /// (Alg. 5's timer). 0 disables the check. Note that link retransmissions
  /// eat into this budget — an honest reader on a bad link can miss it,
  /// which is precisely the paper's STmax-calibration problem.
  double utrp_deadline_us = 0.0;
  /// Radio channel this reader's antenna observes during TRP scans (reply
  /// loss, capture). Defaults to the ideal channel, which reproduces the
  /// paper's noiseless reader bit for bit.
  radio::ChannelModel channel = {};
  /// TRP only: when set, round r is issued (*trp_challenges)[r] instead of
  /// fresh randomness (must cover every round; not owned). This is how the
  /// fusion layer aims k independent reader sessions at one challenge
  /// stream so their bitstrings are comparable slot by slot.
  const std::vector<protocol::TrpChallenge>* trp_challenges = nullptr;
  /// TRP only: adversarial reader hook. When set, the reader skips the tag
  /// field entirely and reports forge(challenge) — e.g. the expected
  /// bitstring of the full enrolled set, hiding a theft (src/attack).
  std::function<bits::Bitstring(const protocol::TrpChallenge&)> trp_forge;
  /// Optional scripted faults (not owned; must outlive the session run).
  /// Crash windows are in absolute queue time and must not lie in the past.
  const fault::FaultPlan* faults = nullptr;
  /// Optional observability hooks (none owned; each must outlive the run).
  /// `metrics` turns on link/scan/retry counters plus the session epilogue
  /// series; `tracer` records a session → round → scan span tree (construct
  /// it with the queue's clock for deterministic timestamps); `session_log`
  /// receives one SessionSummary per run.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::SessionLog* session_log = nullptr;
};

/// Why a round did not produce a clean, on-time verdict.
enum class FailureReason : std::uint8_t {
  kNone = 0,            // session completed every round
  kTimeoutExhausted,    // max_retries timeouts with nothing heard back
  kDeadlineMissed,      // UTRP: report verified after the Alg. 5 timer
  kCrashed,             // reader crashed and never restarted
  kCorruptGiveup,       // retries exhausted while corrupt frames were being
                        // rejected by the checksum
};

[[nodiscard]] std::string_view to_string(FailureReason reason) noexcept;

struct RoundFailure {
  std::uint64_t round = 0;
  FailureReason reason = FailureReason::kNone;
};

struct SessionOutcome {
  bool completed = false;              // all rounds finished (acked)
  /// Why the session stopped early; kNone when completed. The failing round
  /// is `rounds_completed` (rounds are acked in order).
  FailureReason failure = FailureReason::kNone;
  /// Every round that failed, terminal or not — deadline-missed rounds
  /// complete (the server acks them) but appear here with kDeadlineMissed.
  std::vector<RoundFailure> round_failures;
  std::uint64_t rounds_completed = 0;
  std::vector<protocol::Verdict> verdicts;  // one per completed round
  /// The bitstring the server verified each round, index-aligned with
  /// `verdicts` — the per-reader evidence the fusion layer votes over.
  std::vector<bits::Bitstring> reported;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t retransmissions = 0;
  double finished_at_us = 0.0;
  // Fault accounting (all zero without a FaultPlan).
  std::uint64_t corrupt_frames_dropped = 0;  // rejected by the checksum
  std::uint64_t burst_frames_dropped = 0;    // Gilbert–Elliott losses
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t reader_crashes = 0;
};

/// Runs `rounds` TRP rounds between `server` and a reader scanning
/// `present`. `rng` drives link loss/jitter and challenge randomness.
[[nodiscard]] SessionOutcome run_trp_session(sim::EventQueue& queue,
                                             const protocol::TrpServer& server,
                                             std::span<const tag::Tag> present,
                                             std::uint64_t rounds,
                                             const SessionConfig& config,
                                             util::Rng& rng);

/// Runs `rounds` UTRP rounds. The tags mutate (counters advance) exactly as
/// in a physical scan; the server's mirror is committed after each verified
/// round. When config.utrp_deadline_us > 0, a report arriving later than
/// that after its challenge was first issued fails verification (Alg. 5's
/// timer) — including when the delay came from honest retransmissions.
[[nodiscard]] SessionOutcome run_utrp_session(sim::EventQueue& queue,
                                              protocol::UtrpServer& server,
                                              std::span<tag::Tag> present,
                                              std::uint64_t rounds,
                                              const SessionConfig& config,
                                              util::Rng& rng);

}  // namespace rfid::wire
