// Group planning: sharding one large population across reader zones while
// preserving a global monitoring guarantee.
//
// The paper's server monitors one static set per protocol run, and its
// flexibility claim (Sec. 1) is that groups of any size can be accommodated.
// Real deployments shard for physical reasons — a reader's field covers one
// cage or aisle, not the whole warehouse. The planner answers: given N tags,
// a global tolerance of M missing, confidence α, and a per-zone capacity,
// how should zones and per-zone tolerances be chosen, and what does sharding
// cost?
//
// Guarantee: tolerances are allocated so that Σ m_i = M. If more than M tags
// are missing overall, by pigeonhole at least one zone exceeds its own m_i,
// and that zone's Eq. (2) frame flags it with probability > α. (Detection
// can only be better when the theft spans several zones.)
//
// Cost shape: f(n, m, α) grows sub-linearly in m at fixed n, so splitting a
// set shrinks each zone's n but also its tolerance — the per-zone frames
// do not shrink proportionally and total slots INCREASE with zone count.
// Sharding is a coverage necessity, not an optimization; the planner
// quantifies its price (see bench/ablation_sharding).
#pragma once

#include <cstdint>
#include <vector>

#include "math/detection.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"

namespace rfid::server {

struct PlannerInput {
  std::uint64_t total_tags = 0;       // N
  std::uint64_t total_tolerance = 0;  // M (alert when > M missing overall)
  double alpha = 0.95;
  /// Per-zone capacity (reader coverage); 0 means unlimited (single zone).
  std::uint64_t max_group_size = 0;
  math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox;
};

struct ZonePlan {
  std::uint64_t tags = 0;        // n_i
  std::uint64_t tolerance = 0;   // m_i
  std::uint32_t frame_size = 0;  // Eq. (2) frame for (n_i, m_i, alpha)
  double detection = 0.0;        // g(n_i, m_i + 1, frame_size)
};

struct GroupPlan {
  std::vector<ZonePlan> zones;
  std::uint64_t total_slots = 0;        // Σ frame sizes
  double worst_zone_detection = 0.0;    // min over zones (the guarantee)
};

/// How many zones plan_groups makes: ceil(total_tags / max_group_size), or
/// one zone when max_group_size is 0 (none for no tags). Never wraps and
/// never exceeds total_tags, whatever the two u64 inputs are.
[[nodiscard]] constexpr std::uint64_t zone_count(
    std::uint64_t total_tags, std::uint64_t max_group_size) noexcept {
  if (max_group_size == 0) return total_tags == 0 ? 0 : 1;
  return total_tags / max_group_size +
         (total_tags % max_group_size != 0 ? 1 : 0);
}

/// Plans zones of near-equal size within the capacity, allocates the global
/// tolerance proportionally (Σ m_i = M exactly), and sizes each zone's
/// frame by Eq. (2). Requires total_tolerance + zone_count <= total_tags
/// (every zone must be able to lose m_i + 1 tags).
[[nodiscard]] GroupPlan plan_groups(const PlannerInput& input);

/// Partitions a population into per-zone TagSets matching `plan` — zone i
/// receives the next plan.zones[i].tags tags, in set order (tag state,
/// counters included, is copied unchanged). Requires the population size to
/// equal the plan's total. group_planner_test uses it as the row-oriented
/// reference for split_columnar_by_plan.
[[nodiscard]] std::vector<tag::TagSet> split_by_plan(const tag::TagSet& tags,
                                                     const GroupPlan& plan);

/// The columnar twin of split_by_plan: each zone is columnarized straight
/// from its subspan of `tags` (slot words derived once, here), with no
/// whole-population columnar copy in between. This is the handoff the fleet
/// uses to hold each zone's server-side state.
[[nodiscard]] std::vector<tag::ColumnarTagSet> split_columnar_by_plan(
    const tag::TagSet& tags, const GroupPlan& plan);

}  // namespace rfid::server
