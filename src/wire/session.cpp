#include "wire/session.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/catalog.h"
#include "radio/timing.h"
#include "util/expect.h"

namespace rfid::wire {

std::string_view to_string(FailureReason reason) noexcept {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kTimeoutExhausted: return "timeout-exhausted";
    case FailureReason::kDeadlineMissed: return "deadline-missed";
    case FailureReason::kCrashed: return "crashed";
    case FailureReason::kCorruptGiveup: return "corrupt-giveup";
  }
  return "unknown";
}

namespace {

// The session state machine is protocol-agnostic; an Adapter supplies the
// five protocol-specific operations (issue/encode/accept/scan/verify). Both
// adapters keep scans one-per-round — retransmitted reports reuse the stored
// bitstring, which matters for UTRP where a re-scan would advance counters.
// (A crash/restart deliberately re-scans: the reader lost its volatile scan
// state, exactly like real hardware. For TRP the re-scan is idempotent; for
// UTRP it advances counters past the mirror — the divergence the server's
// resync flow exists to heal.)

struct TrpAdapter {
  const protocol::TrpServer& server;
  std::span<const tag::Tag> present;
  const SessionConfig& config;

  using Challenge = protocol::TrpChallenge;
  static constexpr std::string_view kProtocol{"trp"};

  [[nodiscard]] Challenge issue(std::uint64_t round, util::Rng& rng) const {
    if (config.trp_challenges != nullptr) {
      RFID_EXPECT(round < config.trp_challenges->size(),
                  "fixed challenge schedule does not cover this round");
      return (*config.trp_challenges)[round];
    }
    return server.issue_challenge(rng);
  }
  [[nodiscard]] std::vector<std::byte> encode_challenge(std::uint64_t round,
                                                        const Challenge& c) const {
    return encode(TrpChallengeMsg{round, c});
  }
  static constexpr MessageType kChallengeType = MessageType::kTrpChallenge;
  [[nodiscard]] static TrpChallengeMsg decode_challenge(FrameView frame) {
    return decode_trp_challenge(frame);
  }
  /// Returns (bitstring, scan duration). `rng` drives channel randomness.
  [[nodiscard]] std::pair<bits::Bitstring, double> scan(const Challenge& c,
                                                        util::Rng& rng) const {
    if (config.trp_forge) {
      // Adversarial reader: no scan happens; the forged string still prices
      // air time so the timeline stays physically plausible.
      bits::Bitstring forged = config.trp_forge(c);
      const std::uint64_t replies = forged.count();
      const double us =
          radio::TimingModel{}.trp_scan_us(c.frame_size - replies, replies);
      return {std::move(forged), us};
    }
    const protocol::TrpReader reader{hash::SlotHasher{}, config.channel};
    const auto observed = reader.scan_observed(present, c, rng);
    const std::uint64_t replies =
        observed.single_slots + observed.collision_slots;
    if (config.metrics != nullptr) {
      obs::catalog::scan_slots_total(*config.metrics, kProtocol, "empty")
          .inc(observed.empty_slots);
      obs::catalog::scan_slots_total(*config.metrics, kProtocol, "reply")
          .inc(replies);
    }
    const double us =
        radio::TimingModel{}.trp_scan_us(observed.empty_slots, replies);
    return {observed.bitstring, us};
  }
  [[nodiscard]] protocol::Verdict verify(const Challenge& c,
                                         const bits::Bitstring& bs,
                                         double /*elapsed_us*/) const {
    return server.verify(c, bs);
  }
};

struct UtrpAdapter {
  protocol::UtrpServer& server;
  std::span<tag::Tag> present;
  const SessionConfig& config;

  using Challenge = protocol::UtrpChallenge;
  static constexpr std::string_view kProtocol{"utrp"};

  [[nodiscard]] Challenge issue(std::uint64_t /*round*/, util::Rng& rng) const {
    return server.issue_challenge(rng);
  }
  [[nodiscard]] std::vector<std::byte> encode_challenge(std::uint64_t round,
                                                        const Challenge& c) const {
    return encode(UtrpChallengeMsg{round, c});
  }
  static constexpr MessageType kChallengeType = MessageType::kUtrpChallenge;
  [[nodiscard]] static UtrpChallengeMsg decode_challenge(FrameView frame) {
    return decode_utrp_challenge(frame);
  }
  [[nodiscard]] std::pair<bits::Bitstring, double> scan(const Challenge& c,
                                                        util::Rng& /*rng*/) const {
    const auto result = protocol::utrp_scan(present, hash::SlotHasher{}, c);
    const std::uint64_t occupied = result.bitstring.count();
    if (config.metrics != nullptr) {
      obs::catalog::scan_slots_total(*config.metrics, kProtocol, "empty")
          .inc(c.frame_size - occupied);
      obs::catalog::scan_slots_total(*config.metrics, kProtocol, "reply")
          .inc(occupied);
      obs::catalog::reseeds_total(*config.metrics, "reader").inc(result.reseeds);
    }
    const double us = radio::TimingModel{}.utrp_scan_us(
        c.frame_size - occupied, occupied, result.reseeds);
    return {result.bitstring, us};
  }
  [[nodiscard]] protocol::Verdict verify(const Challenge& c,
                                         const bits::Bitstring& bs,
                                         double elapsed_us) const {
    const bool on_time = config.utrp_deadline_us <= 0.0 ||
                         elapsed_us <= config.utrp_deadline_us;
    return server.commit_round(c, bs, on_time);
  }
};

/// All mutable state of one session, shared by the event-queue callbacks.
/// Held by shared_ptr so late-firing timeout events cannot dangle (they
/// compare generations and become no-ops).
template <typename Adapter>
struct SessionState {
  sim::EventQueue& queue;
  Adapter adapter;
  const SessionConfig& config;
  util::Rng& rng;
  /// Executes the scripted FaultPlan, if any. Constructed before the links
  /// so they can hold a stable pointer into it.
  std::optional<fault::FaultInjector> injector;
  Link uplink;    // reader -> server
  Link downlink;  // server -> reader

  using Challenge = typename Adapter::Challenge;

  // --- server endpoint ----------------------------------------------------
  std::map<std::uint64_t, Challenge> issued;
  std::map<std::uint64_t, double> issued_at_us;      // first-issue timestamp
  std::map<std::uint64_t, protocol::Verdict> decided;

  // --- reader endpoint ----------------------------------------------------
  std::uint64_t total_rounds;
  std::uint64_t round = 0;
  enum class Phase { kRequesting, kScanning, kReporting, kDone, kFailed, kCrashed };
  Phase phase = Phase::kRequesting;
  BitstringReport pending_report;
  std::uint32_t retries = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t generation = 0;
  /// When the reader first requested the current round (its local view of
  /// the UTRP deadline clock; the server's true clock starts at first
  /// issue, slightly later, so this is conservative).
  double round_started_at_us = 0.0;
  /// corrupt_frames_dropped at round start, to attribute corrupt-giveup.
  std::uint64_t round_corrupt_base = 0;
  /// Backoff jitter draws come from a dedicated stream so enabling them
  /// never perturbs challenge/channel randomness.
  util::Rng backoff_rng{0x6b63616266666f62ULL};

  SessionOutcome outcome;

  // --- observability (all optional; see SessionConfig) --------------------
  obs::Counter* retrans_counter = nullptr;
  std::uint64_t session_span = obs::Tracer::kNoSpan;
  std::uint64_t round_span = obs::Tracer::kNoSpan;
  std::uint64_t scan_span = obs::Tracer::kNoSpan;

  SessionState(sim::EventQueue& q, Adapter a, std::uint64_t rounds,
               const SessionConfig& cfg, util::Rng& r)
      : queue(q),
        adapter(std::move(a)),
        config(cfg),
        rng(r),
        injector(cfg.faults != nullptr
                     ? std::optional<fault::FaultInjector>(
                           std::in_place, *cfg.faults)
                     : std::nullopt),
        uplink(q, cfg.uplink, r, injector ? &*injector : nullptr),
        downlink(q, cfg.downlink, r, injector ? &*injector : nullptr),
        total_rounds(rounds) {
    if (cfg.metrics != nullptr) {
      uplink.attach_metrics(*cfg.metrics, "uplink");
      downlink.attach_metrics(*cfg.metrics, "downlink");
      retrans_counter = &obs::catalog::retransmissions_total(*cfg.metrics);
    }
    if (cfg.tracer != nullptr) {
      session_span = cfg.tracer->begin_span("session");
      cfg.tracer->annotate(session_span, "protocol", Adapter::kProtocol);
      cfg.tracer->annotate(session_span, "group", cfg.group_name);
    }
  }

  void begin_round_clock() {
    round_started_at_us = queue.now();
    round_corrupt_base = outcome.corrupt_frames_dropped;
    if (config.tracer != nullptr) {
      config.tracer->end_span(round_span);  // no-op on the first round
      round_span = config.tracer->begin_span("round", session_span);
      config.tracer->annotate(round_span, "round", std::to_string(round));
    }
  }
};

template <typename Adapter>
using StatePtr = std::shared_ptr<SessionState<Adapter>>;

template <typename Adapter>
void reader_send_request(const StatePtr<Adapter>& state);
template <typename Adapter>
void reader_send_report(const StatePtr<Adapter>& state);

/// Capped exponential backoff with jitter. For UTRP the schedule is
/// deadline-aware: while the round's Alg. 5 budget has not expired, a retry
/// is never postponed past (half of) what remains — sleeping through the
/// deadline converts recoverable loss into a guaranteed verification
/// failure. Once the budget is blown the clamp disappears and the normal
/// schedule resumes (the round still completes, for accounting).
template <typename Adapter>
double backoff_delay(SessionState<Adapter>& state) {
  const SessionConfig& config = state.config;
  const double cap = config.backoff_cap_us > 0.0
                         ? config.backoff_cap_us
                         : 16.0 * config.retry_timeout_us;
  double delay = config.retry_timeout_us;
  for (std::uint32_t i = 0; i < state.retries && delay < cap; ++i) {
    delay *= config.backoff_multiplier;
  }
  delay = std::min(delay, cap);
  if (config.backoff_jitter > 0.0) {
    delay += delay * config.backoff_jitter * state.backoff_rng.uniform();
  }
  if (config.utrp_deadline_us > 0.0) {
    const double remaining = state.round_started_at_us +
                             config.utrp_deadline_us - state.queue.now();
    if (remaining > 0.0) {
      delay = std::min(delay,
                       std::max(remaining * 0.5, config.retry_timeout_us * 0.25));
    }
  }
  return delay;
}

template <typename Adapter>
void arm_timeout(const StatePtr<Adapter>& state) {
  using Phase = typename SessionState<Adapter>::Phase;
  const std::uint64_t armed_generation = state->generation;
  state->queue.schedule_after(
      backoff_delay(*state), [state, armed_generation] {
        if (state->generation != armed_generation) return;  // progressed
        if (state->retries >= state->config.max_retries) {
          state->phase = Phase::kFailed;
          ++state->generation;
          // Name the give-up: if the checksum was rejecting frames during
          // this round, the link was corrupting, not just losing.
          const FailureReason reason =
              state->outcome.corrupt_frames_dropped > state->round_corrupt_base
                  ? FailureReason::kCorruptGiveup
                  : FailureReason::kTimeoutExhausted;
          state->outcome.failure = reason;
          state->outcome.round_failures.push_back({state->round, reason});
          return;
        }
        ++state->retries;
        ++state->retransmissions;
        if (state->retrans_counter != nullptr) state->retrans_counter->inc();
        if (state->phase == Phase::kRequesting) {
          reader_send_request(state);
        } else if (state->phase == Phase::kReporting) {
          reader_send_report(state);
        }
      });
}

/// Downlink delivery: the reader's half of the state machine. A frame is
/// checked once and dispatched on its type; one that fails (the checksum or
/// a decode) is counted as corrupt — never thrown into the event queue.
template <typename Adapter>
void server_send(const StatePtr<Adapter>& state, std::vector<std::byte> bytes) {
  using Phase = typename SessionState<Adapter>::Phase;
  (void)state->downlink.send(
      std::move(bytes), [state](std::vector<std::byte> f) {
        if (state->phase == Phase::kCrashed) return;  // reader is down
        try {
          const FrameView frame = open_frame(f);
          const auto type = static_cast<MessageType>(frame.type);
          if (type == Adapter::kChallengeType) {
            auto [round, challenge] = Adapter::decode_challenge(frame);
            if (state->phase != Phase::kRequesting || round != state->round) {
              return;  // stale duplicate
            }
            state->phase = Phase::kScanning;
            ++state->generation;
            state->retries = 0;

            if (state->config.tracer != nullptr) {
              state->scan_span =
                  state->config.tracer->begin_span("scan", state->round_span);
            }
            auto [bitstring, scan_us] =
                state->adapter.scan(challenge, state->rng);
            state->pending_report = BitstringReport{
                state->config.group_name, state->round, std::move(bitstring),
                scan_us};
            const std::uint64_t scan_generation = state->generation;
            state->queue.schedule_after(scan_us, [state, scan_generation] {
              if (state->generation != scan_generation ||
                  state->phase != Phase::kScanning) {
                return;  // crashed (or otherwise moved on) mid-scan
              }
              if (state->config.tracer != nullptr) {
                state->config.tracer->end_span(state->scan_span);
              }
              state->phase = Phase::kReporting;
              ++state->generation;
              state->retries = 0;
              reader_send_report(state);
            });
          } else if (type == MessageType::kVerdictAck) {
            const VerdictAck ack = decode_verdict_ack(frame);
            if (state->phase != Phase::kReporting || ack.round != state->round) {
              return;  // stale duplicate
            }
            ++state->outcome.rounds_completed;
            ++state->round;
            ++state->generation;
            state->retries = 0;
            if (state->round >= state->total_rounds) {
              state->phase = Phase::kDone;
              state->outcome.completed = true;
              state->outcome.finished_at_us = state->queue.now();
            } else {
              state->phase = Phase::kRequesting;
              state->begin_round_clock();
              reader_send_request(state);
            }
          }
        } catch (const std::invalid_argument&) {
          ++state->outcome.corrupt_frames_dropped;
        }
      });
}

/// Uplink delivery: the server's half of the state machine. Same corruption
/// guard as the reader side.
template <typename Adapter>
void server_on_frame(const StatePtr<Adapter>& state, std::vector<std::byte> bytes) {
  try {
    const FrameView frame = open_frame(bytes);
    const auto type = static_cast<MessageType>(frame.type);
    if (type == MessageType::kChallengeRequest) {
      const ChallengeRequest request = decode_challenge_request(frame);
      // Idempotent issue: one challenge per round, replayed for duplicates;
      // the deadline clock starts at FIRST issue.
      auto [it, inserted] = state->issued.try_emplace(request.round);
      if (inserted) {
        it->second = state->adapter.issue(request.round, state->rng);
        state->issued_at_us[request.round] = state->queue.now();
      }
      server_send(state, state->adapter.encode_challenge(request.round, it->second));
    } else if (type == MessageType::kBitstringReport) {
      const BitstringReport report = decode_bitstring_report(frame);
      const auto issued_it = state->issued.find(report.round);
      if (issued_it == state->issued.end()) return;  // report for unknown round
      auto [it, inserted] = state->decided.try_emplace(report.round);
      if (inserted) {
        double elapsed =
            state->queue.now() - state->issued_at_us[report.round];
        // A skewed server clock mis-measures the Alg. 5 interval — the
        // calibration hazard the fault plan makes testable.
        if (state->injector) elapsed = state->injector->skewed_elapsed(elapsed);
        it->second =
            state->adapter.verify(issued_it->second, report.bitstring, elapsed);
        state->outcome.verdicts.push_back(it->second);
        state->outcome.reported.push_back(report.bitstring);
        if (!it->second.deadline_met) {
          state->outcome.round_failures.push_back(
              {report.round, FailureReason::kDeadlineMissed});
        }
      }
      server_send(state, encode(VerdictAck{report.round, it->second.intact}));
    }
  } catch (const std::invalid_argument&) {
    ++state->outcome.corrupt_frames_dropped;
  }
}

template <typename Adapter>
void reader_send(const StatePtr<Adapter>& state, std::vector<std::byte> frame) {
  (void)state->uplink.send(std::move(frame), [state](std::vector<std::byte> f) {
    server_on_frame(state, std::move(f));
  });
  arm_timeout(state);
}

template <typename Adapter>
void reader_send_request(const StatePtr<Adapter>& state) {
  reader_send(state,
              encode(ChallengeRequest{state->config.group_name, state->round}));
}

template <typename Adapter>
void reader_send_report(const StatePtr<Adapter>& state) {
  reader_send(state, encode(state->pending_report));
}

/// Schedules the FaultPlan's scripted reader outages. A crash abandons all
/// volatile reader state (mid-scan progress, pending retries); the restart
/// cold-boots into the current round, whose challenge the server replays
/// from its idempotent cache.
template <typename Adapter>
void schedule_crashes(const StatePtr<Adapter>& state) {
  using Phase = typename SessionState<Adapter>::Phase;
  for (const fault::CrashWindow& window : state->injector->plan().reader_crashes) {
    RFID_EXPECT(window.start_us >= state->queue.now(),
                "crash window starts in the simulated past");
    state->queue.schedule_at(window.start_us, [state] {
      if (state->phase == Phase::kDone || state->phase == Phase::kFailed) return;
      state->phase = Phase::kCrashed;
      ++state->generation;  // cancels pending timeouts and the scan event
      ++state->outcome.reader_crashes;
    });
    if (std::isfinite(window.end_us) && window.end_us > window.start_us) {
      state->queue.schedule_at(window.end_us, [state] {
        if (state->phase != Phase::kCrashed) return;
        state->phase = Phase::kRequesting;
        ++state->generation;
        state->retries = 0;
        reader_send_request(state);
      });
    }
  }
}

template <typename Adapter>
SessionOutcome run_session(sim::EventQueue& queue, Adapter adapter,
                           std::uint64_t rounds, const SessionConfig& config,
                           util::Rng& rng) {
  using Phase = typename SessionState<Adapter>::Phase;
  RFID_EXPECT(rounds >= 1, "need at least one round");
  auto state = std::make_shared<SessionState<Adapter>>(
      queue, std::move(adapter), rounds, config, rng);
  if (state->injector) schedule_crashes(state);
  const double started_at_us = queue.now();
  state->begin_round_clock();
  reader_send_request(state);
  (void)queue.run();

  state->outcome.frames_sent =
      state->uplink.frames_sent() + state->downlink.frames_sent();
  state->outcome.frames_dropped =
      state->uplink.frames_dropped() + state->downlink.frames_dropped();
  state->outcome.retransmissions = state->retransmissions;
  if (state->injector) {
    state->outcome.burst_frames_dropped = state->injector->burst_dropped();
    state->outcome.frames_duplicated = state->injector->duplicated();
    state->outcome.frames_reordered = state->injector->reordered();
  }
  if (!state->outcome.completed) {
    state->outcome.finished_at_us = queue.now();
    if (state->phase == Phase::kCrashed) {
      state->outcome.failure = FailureReason::kCrashed;
      state->outcome.round_failures.push_back(
          {state->round, FailureReason::kCrashed});
    }
  }

  // Observability epilogue: close any spans a failure path left open
  // (end_span is idempotent), then record the session-level series.
  if (config.tracer != nullptr) {
    config.tracer->end_span(state->scan_span);
    config.tracer->end_span(state->round_span);
    config.tracer->end_span(state->session_span);
  }
  const std::string_view outcome_label = state->outcome.completed
                                             ? std::string_view("completed")
                                             : to_string(state->outcome.failure);
  if (config.metrics != nullptr) {
    namespace cat = obs::catalog;
    obs::MetricsRegistry& reg = *config.metrics;
    cat::sessions_total(reg, Adapter::kProtocol, outcome_label).inc();
    cat::session_duration_us(reg, Adapter::kProtocol)
        .observe(state->outcome.finished_at_us - started_at_us);
    for (const RoundFailure& failure : state->outcome.round_failures) {
      cat::round_failures_total(reg, to_string(failure.reason)).inc();
    }
    cat::corrupt_frames_rejected_total(reg).inc(
        state->outcome.corrupt_frames_dropped);
    if (state->injector) {
      cat::faults_injected_total(reg, "burst_drop")
          .inc(state->outcome.burst_frames_dropped);
      cat::faults_injected_total(reg, "corrupt")
          .inc(state->injector->corrupted());
      cat::faults_injected_total(reg, "duplicate")
          .inc(state->outcome.frames_duplicated);
      cat::faults_injected_total(reg, "reorder")
          .inc(state->outcome.frames_reordered);
      cat::faults_injected_total(reg, "reader_crash")
          .inc(state->outcome.reader_crashes);
    }
  }
  if (config.session_log != nullptr) {
    obs::SessionSummary summary;
    summary.protocol = std::string(Adapter::kProtocol);
    summary.group = config.group_name;
    summary.completed = state->outcome.completed;
    summary.outcome = std::string(outcome_label);
    summary.rounds_completed = state->outcome.rounds_completed;
    summary.round_failures = state->outcome.round_failures.size();
    summary.frames_sent = state->outcome.frames_sent;
    summary.retransmissions = state->outcome.retransmissions;
    summary.duration_us = state->outcome.finished_at_us - started_at_us;
    config.session_log->record(std::move(summary));
  }
  return state->outcome;
}

}  // namespace

SessionOutcome run_trp_session(sim::EventQueue& queue,
                               const protocol::TrpServer& server,
                               std::span<const tag::Tag> present,
                               std::uint64_t rounds,
                               const SessionConfig& config, util::Rng& rng) {
  return run_session(queue, TrpAdapter{server, present, config}, rounds, config,
                     rng);
}

SessionOutcome run_utrp_session(sim::EventQueue& queue,
                                protocol::UtrpServer& server,
                                std::span<tag::Tag> present,
                                std::uint64_t rounds,
                                const SessionConfig& config, util::Rng& rng) {
  return run_session(queue, UtrpAdapter{server, present, config}, rounds,
                     config, rng);
}

}  // namespace rfid::wire
