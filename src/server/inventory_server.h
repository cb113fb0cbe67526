// InventoryServer: the secure back-end of Sec. 3, generalized to many groups.
//
// A retailer monitors heterogeneous groups of items — a shelf of razor
// blades with m = 0, a warehouse pallet area with m = 30 — each with its own
// protocol choice (TRP where readers are trusted, UTRP where they are not),
// tolerance, and confidence. The paper highlights this flexibility as an
// advantage over yoking-proof schemes whose on-tag timers hard-wire one
// group size (Sec. 2); InventoryServer is where that claim becomes API.
//
// The server also keeps an alert log: a warning is recorded whenever a
// round's bitstring mismatches or (UTRP) misses its deadline, together with
// a cardinality estimate from the returned bitstring to help triage how much
// stock is gone.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "estimate/cardinality.h"
#include "obs/metrics.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "util/random.h"

namespace rfid::util {
class Decoder;
class Encoder;
}  // namespace rfid::util

namespace rfid::server {

enum class ProtocolKind : std::uint8_t { kTrp, kUtrp };

[[nodiscard]] std::string_view to_string(ProtocolKind kind) noexcept;

/// Codec layout (util/codec.h): one byte; get() rejects values past kUtrp.
void put(util::Encoder& out, ProtocolKind kind);
void get(util::Decoder& in, ProtocolKind& kind);

struct GroupConfig {
  std::string name;
  protocol::MonitoringPolicy policy;
  ProtocolKind protocol = ProtocolKind::kTrp;
  std::uint64_t comm_budget = 20;  // UTRP: adversary communication budget c
  std::uint32_t slack_slots = 8;   // UTRP: extra slots over the Eq. (3) optimum
};

/// Opaque handle to an enrolled group.
struct GroupId {
  std::size_t index = 0;
  friend bool operator==(GroupId, GroupId) = default;
};

/// What an Alert records: a monitoring round that failed verification, or a
/// recovery action taken in response (so the log reads as a full incident
/// timeline: failure, then the resync that healed it).
enum class AlertKind : std::uint8_t { kRoundFailure, kResync };

[[nodiscard]] std::string_view to_string(AlertKind kind) noexcept;

struct Alert {
  /// Monotone per-server sequence number, assigned at record time. Keeps the
  /// incident timeline totally ordered even after the log round-trips
  /// through persistence (restore + journal replay must regenerate the same
  /// ordering — asserted by the storage torture tests).
  std::uint64_t sequence = 0;
  AlertKind kind = AlertKind::kRoundFailure;
  GroupId group;
  std::string group_name;
  std::uint64_t round = 0;
  std::uint64_t mismatched_slots = 0;
  bool deadline_missed = false;
  /// Zero-estimator triage: roughly how many tags the bitstring suggests
  /// were present (vs. the enrolled size). For kResync alerts, the audited
  /// group size.
  double estimated_present = 0.0;
  std::uint64_t enrolled_size = 0;
};

class InventoryServer {
 public:
  explicit InventoryServer(hash::SlotHasher hasher = hash::SlotHasher{})
      : hasher_(hasher) {}

  /// Enrolls a group from a physical audit of its tags. For UTRP groups the
  /// snapshot includes tag counters.
  GroupId enroll(const tag::TagSet& tags, GroupConfig config);

  /// Replaces a group's protocol engine in place from a fresh physical
  /// audit: same GroupId, same alert history (sequences keep counting), new
  /// membership and config. Rounds and the resync flag reset — the new
  /// engine has verified nothing yet. Re-enrolling a decommissioned group
  /// reactivates it.
  void re_enroll(GroupId id, const tag::TagSet& tags, GroupConfig config);

  /// Tombstones a group: challenging or submitting against it becomes API
  /// misuse, but the GroupId stays valid — history keeps referencing it,
  /// and persistence round-trips the flag — so group indices (and with
  /// them every other GroupId) never shift.
  void decommission(GroupId id);
  [[nodiscard]] bool active(GroupId id) const;

  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }
  [[nodiscard]] const GroupConfig& config(GroupId id) const;
  [[nodiscard]] std::uint64_t group_size(GroupId id) const;
  /// The frame size this group's challenges use (Eq. 2 or Eq. 3 + slack).
  [[nodiscard]] std::uint32_t frame_size(GroupId id) const;
  [[nodiscard]] std::uint64_t rounds_completed(GroupId id) const;

  /// Round driver, TRP groups.
  [[nodiscard]] protocol::TrpChallenge challenge_trp(GroupId id, util::Rng& rng) const;
  protocol::Verdict submit_trp(GroupId id, const protocol::TrpChallenge& challenge,
                               const bits::Bitstring& reported);

  /// Round driver, UTRP groups. `deadline_met` is the Alg. 5 timer check.
  [[nodiscard]] protocol::UtrpChallenge challenge_utrp(GroupId id, util::Rng& rng) const;
  protocol::Verdict submit_utrp(GroupId id, const protocol::UtrpChallenge& challenge,
                                const bits::Bitstring& reported, bool deadline_met);

  /// All alerts raised so far, oldest first.
  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept { return alerts_; }
  /// True when the UTRP group's mirror may have diverged (post-alert).
  [[nodiscard]] bool needs_resync(GroupId id) const;

  /// Recovery flow for a diverged UTRP mirror: re-commits the mirror from a
  /// trusted physical audit (IDs + counters — e.g. a snapshot refreshed at
  /// the shelf), clears needs_resync, and records a kResync alert so the
  /// incident log shows the recovery alongside the failure that caused it.
  /// The audit must cover exactly the enrolled group.
  void resync(GroupId id, const tag::TagSet& audited);

  /// Copy of a UTRP group's mirrored database (IDs + counters as the server
  /// believes them) — what an operator diffs against a physical audit.
  [[nodiscard]] tag::TagSet utrp_mirror(GroupId id) const;

  /// The group's tags as persistence must record them: enrolled IDs for TRP
  /// (counters are not protocol state there), the live counter mirror for
  /// UTRP. This is what save_snapshot needs to capture a *running* server,
  /// not just a fresh enrollment.
  [[nodiscard]] tag::TagSet group_tags(GroupId id) const;

  /// Per-group state the snapshot's AUX section persists alongside the tag
  /// database (see storage/server_state.h).
  struct GroupState {
    std::uint64_t rounds = 0;
    bool needs_resync = false;
    bool active = true;  // false = decommissioned tombstone
  };
  [[nodiscard]] GroupState group_state(GroupId id) const;

  /// Recovery hook for the storage layer: reinstates history that predates
  /// the newest snapshot (round counts, diverged-mirror flags, the alert
  /// log with its sequence numbers). Only valid on a freshly restored
  /// server that has completed no rounds; not for normal operation.
  void restore_history(std::vector<Alert> alerts,
                       const std::vector<GroupState>& states);

  /// Attaches an observability registry to this server and every enrolled
  /// protocol engine (present and future): verdicts, alerts, resyncs, and
  /// enrollments are counted, and engines record their per-round series.
  /// Pass nullptr to detach. The registry must outlive this server.
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Live entries in the expected-bitstring cache (introspection for the
  /// invalidation tests; not part of the monitoring API).
  [[nodiscard]] std::size_t expected_cache_entries() const noexcept {
    return expected_cache_.size();
  }

 private:
  struct Group {
    GroupConfig config;
    std::variant<protocol::TrpServer, protocol::UtrpServer> engine;
    std::uint64_t rounds = 0;
    bool active = true;
  };

  /// One memoized TRP expectation. Deterministic slot choice (Sec. 4.1)
  /// makes the expected bitstring a pure function of (group membership, r,
  /// f), so repeated challenges — retries after wire failures, periodic
  /// re-verification under a pinned challenge — reduce to O(f/64) word
  /// compares. Bounded FIFO; membership changes invalidate by group.
  struct CachedExpectation {
    std::size_t group = 0;
    std::uint64_t r = 0;
    std::uint32_t frame_size = 0;
    bits::Bitstring expected;
  };
  static constexpr std::size_t kExpectedCacheCapacity = 64;

  [[nodiscard]] const Group& group(GroupId id) const;
  [[nodiscard]] Group& group(GroupId id);
  void record_alert(GroupId id, const protocol::Verdict& verdict,
                    const bits::Bitstring& reported);
  [[nodiscard]] const bits::Bitstring* find_expected(
      GroupId id, const protocol::TrpChallenge& challenge) const;
  void store_expected(GroupId id, const protocol::TrpChallenge& challenge,
                      bits::Bitstring expected);
  /// Drops every cached expectation for `id` (membership or engine changed).
  void invalidate_expected(GroupId id);

  hash::SlotHasher hasher_;
  std::vector<Group> groups_;
  std::vector<Alert> alerts_;
  std::uint64_t next_alert_sequence_ = 0;
  std::vector<CachedExpectation> expected_cache_;
  std::size_t expected_cache_next_ = 0;  // overwrite cursor once full
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace rfid::server
