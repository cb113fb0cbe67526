// Multi-round TRP: amplification of the detection guarantee (extension).
//
// Eq. (2) sizes ONE frame so that g(n, m+1, f) > α. For strict policies
// (small m, high α) that single frame explodes — catching one missing tag
// among 1000 with α = 0.99 needs ~10^5 slots, because the frame must be
// nearly empty for the lone missing tag to expose a hole.
//
// Rounds compose: k independent frames with fresh randomness miss only if
// every round misses, so per-round confidence can drop to
//     α_k = 1 − (1 − α)^{1/k}
// and each frame shrinks super-linearly while the product guarantee still
// exceeds α. The total cost k · f(α_k) typically has an interior optimum in
// k (one round is optimal for loose policies; strict policies gain 3–6×).
// plan_multi_round_trp() evaluates one k; optimize_round_count() scans for
// the cheapest k. MultiRoundTrpServer is the runtime: it issues k challenges
// and flags the set unless every round verifies.
//
// Independence caveat: rounds use fresh (f, r), so a *missing* tag's slot is
// re-randomized each round and misses are independent across rounds exactly
// as Theorem 1 assumes for one round. (tests/multi_round_test.cpp checks the
// amplified guarantee empirically.)
#pragma once

#include <cstdint>
#include <vector>

#include "bitstring/bitstring.h"
#include "math/frame_optimizer.h"
#include "protocol/trp.h"

namespace rfid::protocol {

struct MultiRoundPlan {
  std::uint32_t rounds = 1;
  std::uint32_t frame_size = 0;        // per round
  double per_round_alpha = 0.0;        // α_k
  double per_round_detection = 0.0;    // g at (n, m+1, frame_size)
  double predicted_detection = 0.0;    // 1 − (1 − g)^k
  std::uint64_t total_slots = 0;       // rounds · frame_size
};

/// Sizes a k-round campaign meeting overall confidence `alpha`.
/// Requires k >= 1; other preconditions as optimize_trp_frame.
[[nodiscard]] MultiRoundPlan plan_multi_round_trp(
    std::uint64_t n, std::uint64_t m, double alpha, std::uint32_t rounds,
    math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox);

/// Scans k = 1..max_rounds and returns the plan with the fewest total slots
/// (ties break toward fewer rounds — fewer reader passes).
[[nodiscard]] MultiRoundPlan optimize_round_count(
    std::uint64_t n, std::uint64_t m, double alpha, std::uint32_t max_rounds = 16,
    math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox);

/// Runtime driver: a TRP server whose verdict spans k rounds.
class MultiRoundTrpServer {
 public:
  MultiRoundTrpServer(std::vector<tag::TagId> ids, MonitoringPolicy policy,
                      std::uint32_t rounds,
                      hash::SlotHasher hasher = hash::SlotHasher{});

  [[nodiscard]] const MultiRoundPlan& plan() const noexcept { return plan_; }

  /// One challenge per round, all with fresh randomness.
  [[nodiscard]] std::vector<TrpChallenge> issue_challenges(util::Rng& rng) const;

  /// Intact only if every round's bitstring matches. The verdict's mismatch
  /// fields describe the first failing round.
  [[nodiscard]] Verdict verify(const std::vector<TrpChallenge>& challenges,
                               const std::vector<bits::Bitstring>& reported) const;

  /// Attaches an observability registry: forwards to the inner TRP server
  /// (per-round counters) and records one campaigns_total{outcome} increment
  /// per verify(). Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  TrpServer single_;  // owns ids/hasher; reused for per-round verification
  MultiRoundPlan plan_;
  obs::Counter* campaigns_intact_ = nullptr;
  obs::Counter* campaigns_mismatch_ = nullptr;
};

}  // namespace rfid::protocol
