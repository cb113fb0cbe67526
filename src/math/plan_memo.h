// Private to rfid_math: the process-wide memo behind optimize_trp_frame,
// optimize_utrp_frame and optimize_fused_trp_frame.
//
// A frame plan depends only on its inputs — (n, m, α, model) for Eq. 2,
// plus (c, slack) for Eq. 3, plus the reader-redundancy model for the fused
// optimizer — so each optimizer validates its inputs, then asks the memo,
// and solves only on a miss. Keys match every input bit for bit (doubles by
// their bits), so a hit returns exactly the plan the solve produced.
//
// The table is shared by every thread. A lookup and a store each take the
// one mutex; the solve runs outside it, so two concurrent misses on one key
// may both solve — their plans are identical and the second store is a
// no-op. A solve that throws (unsatisfiable input) stores nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>

#include "math/frame_optimizer.h"

namespace rfid::math::detail {

enum class PlanKind : std::uint8_t { kTrp, kUtrp, kFused };

/// Every optimizer input, doubles as their bits (std::bit_cast); fields an
/// optimizer does not take stay zero.
struct PlanKey {
  PlanKind kind = PlanKind::kTrp;
  EmptySlotModel model = EmptySlotModel::kPoissonApprox;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t alpha_bits = 0;
  std::uint64_t comm_budget = 0;         // Eq. 3
  std::uint32_t slack_slots = 0;         // Eq. 3
  std::uint32_t readers = 0;             // fused
  std::uint32_t assumed_faulty = 0;      // fused
  std::uint64_t slot_loss_bits = 0;      // fused
  std::uint64_t alert_budget_bits = 0;   // fused

  auto operator<=>(const PlanKey&) const = default;
};

using MemoPlan = std::variant<TrpPlan, UtrpPlan>;

/// Counts a hit or a miss; returns the stored plan on a hit.
[[nodiscard]] std::optional<MemoPlan> plan_memo_find(const PlanKey& key);

/// Stores a solved plan unless the key is already present. At
/// kPlanMemoCapacity entries the oldest stored plan is evicted first.
void plan_memo_store(const PlanKey& key, const MemoPlan& plan);

/// The memoized call: the stored plan on a hit, else solve() — stored only
/// if it returns.
template <typename Plan, typename Solve>
Plan memoized_plan(const PlanKey& key, Solve&& solve) {
  if (const auto hit = plan_memo_find(key)) return std::get<Plan>(*hit);
  const Plan plan = solve();
  plan_memo_store(key, plan);
  return plan;
}

}  // namespace rfid::math::detail
