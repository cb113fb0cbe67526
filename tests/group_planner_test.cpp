// Tests for the zone/group planner.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "math/frame_optimizer.h"
#include "server/group_planner.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using rfid::server::GroupPlan;
using rfid::server::plan_groups;
using rfid::server::PlannerInput;
using rfid::server::split_by_plan;

TEST(GroupPlanner, SingleZoneWhenUnconstrained) {
  const GroupPlan plan = plan_groups(
      {.total_tags = 1000, .total_tolerance = 10, .alpha = 0.95});
  ASSERT_EQ(plan.zones.size(), 1u);
  EXPECT_EQ(plan.zones[0].tags, 1000u);
  EXPECT_EQ(plan.zones[0].tolerance, 10u);
  const auto single = rfid::math::optimize_trp_frame(1000, 10, 0.95);
  EXPECT_EQ(plan.total_slots, single.frame_size);
}

TEST(GroupPlanner, SizesAndTolerancesSumExactly) {
  const GroupPlan plan = plan_groups({.total_tags = 1003,
                                      .total_tolerance = 17,
                                      .alpha = 0.95,
                                      .max_group_size = 250});
  std::uint64_t tags = 0;
  std::uint64_t tolerance = 0;
  for (const auto& zone : plan.zones) {
    tags += zone.tags;
    tolerance += zone.tolerance;
    EXPECT_LE(zone.tags, 250u);
    EXPECT_GE(zone.tags, 1u);
  }
  EXPECT_EQ(tags, 1003u);
  EXPECT_EQ(tolerance, 17u);
  EXPECT_EQ(plan.zones.size(), 5u);  // ceil(1003 / 250)
}

TEST(GroupPlanner, ZoneSizesNearlyEqual) {
  const GroupPlan plan = plan_groups({.total_tags = 1000,
                                      .total_tolerance = 20,
                                      .alpha = 0.95,
                                      .max_group_size = 300});
  std::uint64_t min_size = ~0ull;
  std::uint64_t max_size = 0;
  for (const auto& zone : plan.zones) {
    min_size = std::min(min_size, zone.tags);
    max_size = std::max(max_size, zone.tags);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(GroupPlanner, EveryZoneMeetsAlpha) {
  const GroupPlan plan = plan_groups({.total_tags = 2000,
                                      .total_tolerance = 30,
                                      .alpha = 0.95,
                                      .max_group_size = 400});
  EXPECT_GT(plan.worst_zone_detection, 0.95);
  for (const auto& zone : plan.zones) {
    EXPECT_GT(zone.detection, 0.95);
    EXPECT_NEAR(zone.detection,
                rfid::math::detection_probability(zone.tags, zone.tolerance + 1,
                                                  zone.frame_size),
                1e-12);
  }
}

TEST(GroupPlanner, ShardingCostsSlots) {
  // The documented shape: more zones => more total slots, monotonically.
  const auto one = plan_groups({.total_tags = 1200, .total_tolerance = 12,
                                .alpha = 0.95});
  const auto three = plan_groups({.total_tags = 1200, .total_tolerance = 12,
                                  .alpha = 0.95, .max_group_size = 400});
  const auto twelve = plan_groups({.total_tags = 1200, .total_tolerance = 12,
                                   .alpha = 0.95, .max_group_size = 100});
  EXPECT_LT(one.total_slots, three.total_slots);
  EXPECT_LT(three.total_slots, twelve.total_slots);
}

TEST(GroupPlanner, ZeroToleranceZonesAllowed) {
  // M smaller than the zone count: some zones run at m = 0.
  const GroupPlan plan = plan_groups({.total_tags = 400,
                                      .total_tolerance = 2,
                                      .alpha = 0.9,
                                      .max_group_size = 100});
  ASSERT_EQ(plan.zones.size(), 4u);
  std::uint64_t zero_zones = 0;
  for (const auto& zone : plan.zones) {
    if (zone.tolerance == 0) ++zero_zones;
  }
  EXPECT_EQ(zero_zones, 2u);
  EXPECT_GT(plan.worst_zone_detection, 0.9);
}

TEST(GroupPlanner, RejectsImpossibleInputs) {
  EXPECT_THROW((void)plan_groups({.total_tags = 0, .total_tolerance = 0}),
               std::invalid_argument);
  EXPECT_THROW((void)plan_groups({.total_tags = 10, .total_tolerance = 10}),
               std::invalid_argument);
  EXPECT_THROW((void)plan_groups({.total_tags = 100,
                                  .total_tolerance = 99,
                                  .alpha = 0.95,
                                  .max_group_size = 50}),
               std::invalid_argument);
  // Boundary case: M + zones == N is feasible (every zone may lose all but
  // one... plus the one: m_i + 1 == n_i exactly).
  EXPECT_NO_THROW((void)plan_groups({.total_tags = 100,
                                     .total_tolerance = 98,
                                     .alpha = 0.95,
                                     .max_group_size = 50}));
  EXPECT_THROW((void)plan_groups({.total_tags = 10,
                                  .total_tolerance = 1,
                                  .alpha = 1.0}),
               std::invalid_argument);
  // Client-sent u64s at the top of their range. A capacity of 2^64 - 1 once
  // wrapped the zone count to 0 (a division by zero) and a tolerance of
  // 2^64 - 1 wrapped the feasibility check (a remainder loop of ~2^64
  // steps). Such a capacity means one zone, which cannot lose all 100 tags.
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)plan_groups({.total_tags = 100,
                                  .total_tolerance = 100,
                                  .alpha = 0.95,
                                  .max_group_size = kTop}),
               std::invalid_argument);
  EXPECT_THROW((void)plan_groups({.total_tags = 100,
                                  .total_tolerance = kTop,
                                  .alpha = 0.95,
                                  .max_group_size = 50}),
               std::invalid_argument);
  EXPECT_EQ(plan_groups({.total_tags = 100,
                         .total_tolerance = 99,
                         .alpha = 0.95,
                         .max_group_size = kTop})
                .zones.size(),
            1u);
}

TEST(GroupPlanner, PigeonholeGuaranteeHolds) {
  // Any theft pattern exceeding M in total overloads some zone: check the
  // combinatorial core directly for a concrete plan.
  const GroupPlan plan = plan_groups({.total_tags = 600,
                                      .total_tolerance = 9,
                                      .alpha = 0.95,
                                      .max_group_size = 200});
  std::uint64_t total_tolerance = 0;
  for (const auto& zone : plan.zones) total_tolerance += zone.tolerance;
  // Steal M+1 = 10 tags in ANY split across 3 zones: since Σ m_i = 9, some
  // zone must get >= m_i + 1. (Exhaustive check over all compositions.)
  const std::uint64_t theft = total_tolerance + 1;
  for (std::uint64_t a = 0; a <= theft; ++a) {
    for (std::uint64_t b = 0; a + b <= theft; ++b) {
      const std::uint64_t c = theft - a - b;
      const bool overloaded = a > plan.zones[0].tolerance ||
                              b > plan.zones[1].tolerance ||
                              c > plan.zones[2].tolerance;
      EXPECT_TRUE(overloaded) << a << "," << b << "," << c;
    }
  }
}

// Randomized property sweep: for arbitrary feasible (N, M, α, capacity),
// the planner's three invariants must hold — tolerances sum to M exactly
// (the pigeonhole guarantee's precondition), every zone can actually lose
// m_i + 1 tags (so "zone overloaded" is a reachable event), and the worst
// zone still detects its m_i + 1 loss with probability above α.
TEST(GroupPlannerProperty, InvariantsHoldForRandomFeasibleInputs) {
  rfid::util::Rng rng(0xF1EE7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t total = 50 + rng.below(1951);  // N in [50, 2000]
    // Keep M + zone_count <= N feasible for any capacity we pick below.
    const std::uint64_t tolerance = 1 + rng.below(total / 4);
    const double alpha = 0.8 + 0.001 * static_cast<double>(rng.below(196));
    // capacity 0 (single zone) with probability ~1/4, else a real shard.
    std::uint64_t capacity = 0;
    if (rng.below(4) != 0) {
      const std::uint64_t min_cap = total / 20 + 2;
      capacity = min_cap + rng.below(total - min_cap + 1);
    }
    const std::uint64_t zones =
        capacity == 0 ? 1 : (total + capacity - 1) / capacity;
    if (tolerance + zones > total) continue;  // infeasible draw; skip

    const GroupPlan plan = plan_groups({.total_tags = total,
                                        .total_tolerance = tolerance,
                                        .alpha = alpha,
                                        .max_group_size = capacity});
    SCOPED_TRACE("N=" + std::to_string(total) + " M=" +
                 std::to_string(tolerance) + " alpha=" +
                 std::to_string(alpha) + " cap=" + std::to_string(capacity));

    std::uint64_t tag_sum = 0;
    std::uint64_t tolerance_sum = 0;
    for (const auto& zone : plan.zones) {
      tag_sum += zone.tags;
      tolerance_sum += zone.tolerance;
      // Every zone must be able to lose m_i + 1 tags, else the guarantee
      // "some zone exceeds its tolerance" could name an impossible event.
      EXPECT_GE(zone.tags, zone.tolerance + 1);
      if (capacity != 0) {
        EXPECT_LE(zone.tags, capacity);
      }
      EXPECT_GT(zone.detection, alpha);
    }
    EXPECT_EQ(tag_sum, total);
    EXPECT_EQ(tolerance_sum, tolerance);  // Σ m_i == M, exactly
    EXPECT_GT(plan.worst_zone_detection, alpha);
  }
}

TEST(SplitByPlan, SlicesThePopulationInPlanOrder) {
  rfid::util::Rng rng(11);
  const auto tags = rfid::tag::TagSet::make_random(1003, rng);
  const GroupPlan plan = plan_groups({.total_tags = 1003,
                                      .total_tolerance = 17,
                                      .alpha = 0.95,
                                      .max_group_size = 250});
  const auto sets = split_by_plan(tags, plan);
  ASSERT_EQ(sets.size(), plan.zones.size());
  std::size_t cursor = 0;
  for (std::size_t z = 0; z < sets.size(); ++z) {
    ASSERT_EQ(sets[z].size(), plan.zones[z].tags);
    for (std::size_t i = 0; i < sets[z].size(); ++i) {
      EXPECT_EQ(sets[z].tags()[i].id(), tags.tags()[cursor + i].id());
    }
    cursor += sets[z].size();
  }
  EXPECT_EQ(cursor, tags.size());
}

TEST(SplitByPlan, RejectsMismatchedPopulation) {
  rfid::util::Rng rng(12);
  const auto tags = rfid::tag::TagSet::make_random(99, rng);
  const GroupPlan plan = plan_groups({.total_tags = 100,
                                      .total_tolerance = 3,
                                      .alpha = 0.95,
                                      .max_group_size = 40});
  EXPECT_THROW((void)split_by_plan(tags, plan), std::invalid_argument);
}

TEST(SplitColumnarByPlan, SlicesAgreeWithRowSplit) {
  rfid::util::Rng rng(13);
  const auto tags = rfid::tag::TagSet::make_random(1003, rng);
  const GroupPlan plan = plan_groups({.total_tags = 1003,
                                      .total_tolerance = 17,
                                      .alpha = 0.95,
                                      .max_group_size = 250});
  const auto row_sets = split_by_plan(tags, plan);
  const auto col_sets = rfid::server::split_columnar_by_plan(tags, plan);
  ASSERT_EQ(col_sets.size(), row_sets.size());
  for (std::size_t z = 0; z < col_sets.size(); ++z) {
    ASSERT_EQ(col_sets[z].size(), row_sets[z].size());
    for (std::size_t i = 0; i < col_sets[z].size(); ++i) {
      EXPECT_EQ(col_sets[z].id(i), row_sets[z].tags()[i].id());
      EXPECT_EQ(col_sets[z].counter(i), row_sets[z].tags()[i].counter());
      EXPECT_EQ(col_sets[z].slot_words()[i],
                row_sets[z].tags()[i].id().slot_word());
    }
  }
}

TEST(SplitColumnarByPlan, RejectsMismatchedPopulation) {
  rfid::util::Rng rng(14);
  const auto tags = rfid::tag::TagSet::make_random(99, rng);
  const GroupPlan plan = plan_groups({.total_tags = 100,
                                      .total_tolerance = 3,
                                      .alpha = 0.95,
                                      .max_group_size = 40});
  EXPECT_THROW((void)rfid::server::split_columnar_by_plan(tags, plan),
               std::invalid_argument);
}

}  // namespace
