// TRP — the Trusted Reader Protocol (Sec. 4 of the paper).
//
// Round structure (Alg. 1):
//   1. the server issues a fresh challenge (f, r), with f sized by Eq. (2)
//      for the group's (n, m, α);
//   2. the reader broadcasts (f, r); each tag picks slot h(id ⊕ r) mod f and
//      answers with a few random bits in that slot (Algs. 2–3);
//   3. the reader reduces the frame to a bitstring (1 = slot occupied) and
//      returns it;
//   4. the server compares against the bitstring it computed from its ID
//      database: any difference ⇒ "not intact".
//
// TrpServer is the verifying side; TrpReader drives the air interface over
// the radio substrate. Both share the SlotHasher so slot choices agree.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitstring/bitstring.h"
#include "hash/slot_hash.h"
#include "math/frame_optimizer.h"
#include "obs/metrics.h"
#include "protocol/messages.h"
#include "radio/channel.h"
#include "radio/frame.h"
#include "tag/columnar.h"
#include "tag/tag_id.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace rfid::protocol {

/// Monitoring requirements for one group of tags (Sec. 3).
struct MonitoringPolicy {
  std::uint64_t tolerated_missing = 0;  // m
  double confidence = 0.95;             // alpha
  math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox;
};

class TrpServer {
 public:
  /// Enrolls the group: records all IDs and sizes the frame by Eq. (2),
  /// memoized per process (n, m, α are fixed for the group's lifetime — the
  /// set is static per Sec. 3).
  TrpServer(std::vector<tag::TagId> ids, MonitoringPolicy policy,
            hash::SlotHasher hasher = hash::SlotHasher{});

  /// Enrolls from an already-columnarized population (slot words reused, not
  /// re-derived), taking it over.
  TrpServer(tag::ColumnarTagSet enrolled, MonitoringPolicy policy,
            hash::SlotHasher hasher = hash::SlotHasher{});

  /// Enrolls a shared, read-only columnar population: the server borrows it
  /// instead of copying. The fleet hands every zone attempt an aliasing
  /// pointer into its inventory's prepared population, so a server over a
  /// 10^6-tag zone costs a reference count, not a 32 MB copy.
  TrpServer(std::shared_ptr<const tag::ColumnarTagSet> enrolled,
            MonitoringPolicy policy,
            hash::SlotHasher hasher = hash::SlotHasher{});

  [[nodiscard]] std::uint64_t group_size() const noexcept { return tags_->size(); }
  /// The enrolled IDs, in enrollment order (persistence reads these back
  /// when snapshotting a running server).
  [[nodiscard]] std::span<const tag::TagId> ids() const noexcept {
    return tags_->ids();
  }
  [[nodiscard]] const MonitoringPolicy& policy() const noexcept { return policy_; }
  /// The Eq. (2) frame size used by every challenge from this server.
  [[nodiscard]] std::uint32_t frame_size() const noexcept { return plan_.frame_size; }
  /// g(n, m+1, f) at the chosen frame — the analytical detection guarantee.
  [[nodiscard]] double predicted_detection() const noexcept {
    return plan_.predicted_detection;
  }

  /// A fresh challenge with a never-before-used random number.
  [[nodiscard]] TrpChallenge issue_challenge(util::Rng& rng) const;

  /// The bitstring an intact set would produce for `challenge` (Sec. 4.1:
  /// the server can precompute it because slot choice is deterministic),
  /// computed by the fused columnar kernel (tag::bulk_trp_frame).
  [[nodiscard]] bits::Bitstring expected_bitstring(const TrpChallenge& challenge) const;

  /// Compares the reader's bitstring against the expectation.
  [[nodiscard]] Verdict verify(const TrpChallenge& challenge,
                               const bits::Bitstring& reported) const;

  /// verify() with the expectation supplied by the caller — the seam the
  /// InventoryServer's (group, r, f) expected-bitstring cache goes through.
  /// `expected` must be exactly expected_bitstring(challenge); instruments
  /// record the round identically to verify().
  [[nodiscard]] Verdict verify_with_expected(const TrpChallenge& challenge,
                                             const bits::Bitstring& expected,
                                             const bits::Bitstring& reported) const;

  /// Attaches an observability registry: issue_challenge/verify start
  /// recording challenge counts, round outcomes, slot totals, and frame
  /// sizes under protocol="trp". Family lookups happen once, here; the hot
  /// path only touches cached atomics. Pass nullptr to detach. The registry
  /// must outlive this server.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// Cached series handles; null when no registry is attached.
  struct Instruments {
    obs::Counter* challenges = nullptr;
    obs::Counter* rounds_intact = nullptr;
    obs::Counter* rounds_mismatch = nullptr;
    obs::Counter* slots = nullptr;
    obs::Counter* mismatched_slots = nullptr;
    obs::Counter* bulk_slots = nullptr;  // hashes done by the bulk kernel
    obs::Histogram* frame_size = nullptr;
  };

  [[nodiscard]] Verdict verify_against(const TrpChallenge& challenge,
                                       const bits::Bitstring& expected,
                                       const bits::Bitstring& reported) const;

  // ids + precomputed slot words; never null, shared and never mutated
  std::shared_ptr<const tag::ColumnarTagSet> tags_;
  MonitoringPolicy policy_;
  hash::SlotHasher hasher_;
  math::TrpPlan plan_;
  Instruments instruments_;
};

class TrpReader {
 public:
  explicit TrpReader(hash::SlotHasher hasher = hash::SlotHasher{},
                     radio::ChannelModel channel = {})
      : hasher_(hasher), channel_(channel) {}

  /// Executes Algs. 1–3 against the physically present tags and returns the
  /// collected bitstring. `rng` drives channel randomness only.
  [[nodiscard]] bits::Bitstring scan(std::span<const tag::Tag> present,
                                     const TrpChallenge& challenge,
                                     util::Rng& rng) const;

  /// Like scan() but also reports slot statistics (used by timing benches).
  [[nodiscard]] radio::FrameObservation scan_observed(
      std::span<const tag::Tag> present, const TrpChallenge& challenge,
      util::Rng& rng) const;

 private:
  hash::SlotHasher hasher_;
  radio::ChannelModel channel_;
};

}  // namespace rfid::protocol
