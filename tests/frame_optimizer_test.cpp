// Tests for the Eq. (2) and Eq. (3) frame-size optimizers and the
// per-process plan memo behind them.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <latch>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "math/detection.h"
#include "math/frame_optimizer.h"
#include "math/fused_detection.h"

namespace {

using rfid::math::clear_plan_memo;
using rfid::math::detection_probability;
using rfid::math::EmptySlotModel;
using rfid::math::FusedSizingParams;
using rfid::math::kPlanMemoCapacity;
using rfid::math::optimize_fused_trp_frame;
using rfid::math::optimize_trp_frame;
using rfid::math::optimize_utrp_frame;
using rfid::math::plan_memo_stats;
using rfid::math::TrpPlan;
using rfid::math::UtrpPlan;
using rfid::math::utrp_detection_probability;

// ----------------------------------------------------------------- Eq. 2 --

TEST(TrpOptimizer, SatisfiesConstraintAtOptimum) {
  const auto plan = optimize_trp_frame(1000, 10, 0.95);
  EXPECT_GT(plan.predicted_detection, 0.95);
  EXPECT_NEAR(plan.predicted_detection,
              detection_probability(1000, 11, plan.frame_size), 1e-12);
}

TEST(TrpOptimizer, IsMinimal) {
  for (const std::uint64_t n : {100u, 500u, 1500u}) {
    for (const std::uint64_t m : {0u, 5u, 30u}) {
      const auto plan = optimize_trp_frame(n, m, 0.95);
      ASSERT_GT(plan.frame_size, 1u);
      EXPECT_LE(detection_probability(n, m + 1, plan.frame_size - 1), 0.95)
          << "n=" << n << " m=" << m << " f=" << plan.frame_size;
    }
  }
}

TEST(TrpOptimizer, MatchesLinearScanOnSmallInputs) {
  // Ground truth by exhaustive search.
  for (const std::uint64_t n : {20u, 60u, 150u}) {
    for (const std::uint64_t m : {0u, 2u, 5u}) {
      const auto plan = optimize_trp_frame(n, m, 0.9);
      std::uint32_t truth = 0;
      for (std::uint32_t f = 1; f < 10000; ++f) {
        if (detection_probability(n, m + 1, f) > 0.9) {
          truth = f;
          break;
        }
      }
      EXPECT_EQ(plan.frame_size, truth) << "n=" << n << " m=" << m;
    }
  }
}

TEST(TrpOptimizer, FrameGrowsLinearlyWithN) {
  // Fig. 4's qualitative shape: f scales roughly linearly in n for fixed m.
  const auto f500 = optimize_trp_frame(500, 5, 0.95).frame_size;
  const auto f1000 = optimize_trp_frame(1000, 5, 0.95).frame_size;
  const auto f2000 = optimize_trp_frame(2000, 5, 0.95).frame_size;
  EXPECT_NEAR(static_cast<double>(f1000) / f500, 2.0, 0.2);
  EXPECT_NEAR(static_cast<double>(f2000) / f1000, 2.0, 0.2);
}

TEST(TrpOptimizer, FrameShrinksWithTolerance) {
  // More tolerated losses -> fewer slots needed (Fig. 4 across panels).
  const auto m5 = optimize_trp_frame(2000, 5, 0.95).frame_size;
  const auto m10 = optimize_trp_frame(2000, 10, 0.95).frame_size;
  const auto m30 = optimize_trp_frame(2000, 30, 0.95).frame_size;
  EXPECT_GT(m5, m10);
  EXPECT_GT(m10, m30);
}

TEST(TrpOptimizer, FrameGrowsWithConfidence) {
  const auto lo = optimize_trp_frame(1000, 5, 0.90).frame_size;
  const auto mid = optimize_trp_frame(1000, 5, 0.95).frame_size;
  const auto hi = optimize_trp_frame(1000, 5, 0.999).frame_size;
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
}

TEST(TrpOptimizer, StrictMonitoringSingleItem) {
  // m = 0, alpha = 0.99 — the paper's "strict monitoring" example.
  const auto plan = optimize_trp_frame(100, 0, 0.99);
  EXPECT_GT(plan.predicted_detection, 0.99);
  EXPECT_GT(plan.frame_size, 100u);  // one missing tag needs a sparse frame
}

TEST(TrpOptimizer, WorksWithExactModel) {
  const auto plan = optimize_trp_frame(300, 3, 0.95, EmptySlotModel::kExact);
  EXPECT_GT(detection_probability(300, 4, plan.frame_size, EmptySlotModel::kExact),
            0.95);
}

TEST(TrpOptimizer, RejectsBadParameters) {
  EXPECT_THROW((void)optimize_trp_frame(0, 0, 0.95), std::invalid_argument);
  EXPECT_THROW((void)optimize_trp_frame(5, 5, 0.95), std::invalid_argument);
  EXPECT_THROW((void)optimize_trp_frame(10, 1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)optimize_trp_frame(10, 1, 1.0), std::invalid_argument);
}

TEST(TrpOptimizer, UnsatisfiableAlphaThrows) {
  // alpha numerically indistinguishable from 1 can exceed any frame bound.
  EXPECT_THROW((void)optimize_trp_frame(10, 0, 1.0 - 1e-16),
               std::invalid_argument);
}

// ----------------------------------------------------------------- Eq. 3 --

TEST(UtrpDetection, ZeroWhenAdversaryCoversWholeFrame) {
  // With a huge budget c, c' >= f and the attack is undetectable.
  EXPECT_DOUBLE_EQ(utrp_detection_probability(100, 5, 100000, 200), 0.0);
}

TEST(UtrpDetection, MatchesTrpWhenBudgetIsZero) {
  // c = 0 means no collaboration at all: the stolen tags contribute exactly
  // as in TRP, so Eq. 3 collapses to (a mixture dominated by) g(n, m+1, f).
  const std::uint64_t n = 500;
  const std::uint64_t m = 5;
  const std::uint64_t f = 600;
  const double eq3 = utrp_detection_probability(n, m, 0, f);
  const double trp = detection_probability(n, m + 1, f);
  EXPECT_NEAR(eq3, trp, 0.02);
}

TEST(UtrpDetection, DecreasesWithBudget) {
  const std::uint64_t n = 1000;
  const std::uint64_t m = 10;
  const std::uint64_t f = 800;
  double prev = 1.0;
  for (const std::uint64_t c : {0u, 10u, 20u, 50u, 100u}) {
    const double d = utrp_detection_probability(n, m, c, f);
    EXPECT_LE(d, prev + 1e-9) << "c=" << c;
    prev = d;
  }
}

TEST(UtrpDetection, IncreasesWithFrameSize) {
  const std::uint64_t n = 1000;
  const std::uint64_t m = 10;
  double prev = 0.0;
  for (std::uint64_t f = 700; f <= 1600; f += 100) {
    const double d = utrp_detection_probability(n, m, 20, f);
    EXPECT_GE(d, prev - 1e-9) << "f=" << f;
    prev = d;
  }
}

TEST(UtrpOptimizer, SatisfiesConstraintIncludingSlack) {
  const auto plan = optimize_utrp_frame(1000, 10, 0.95, 20);
  EXPECT_GT(plan.predicted_detection, 0.95);
  EXPECT_EQ(plan.frame_size, plan.optimal_frame + 8);
  EXPECT_LE(utrp_detection_probability(1000, 10, 20, plan.optimal_frame - 1),
            0.95);
}

TEST(UtrpOptimizer, NeverSmallerThanTrp) {
  // The adversary only gains information relative to TRP (Sec. 5.4).
  for (const std::uint64_t n : {200u, 1000u, 2000u}) {
    for (const std::uint64_t m : {5u, 20u}) {
      const auto trp = optimize_trp_frame(n, m, 0.95);
      const auto utrp = optimize_utrp_frame(n, m, 0.95, 20, 0);
      EXPECT_GE(utrp.frame_size, trp.frame_size) << "n=" << n << " m=" << m;
    }
  }
}

TEST(UtrpOptimizer, OverheadOverTrpIsModest) {
  // Fig. 6's observation: the UTRP overhead is small at c = 20.
  const auto trp = optimize_trp_frame(2000, 10, 0.95);
  const auto utrp = optimize_utrp_frame(2000, 10, 0.95, 20);
  EXPECT_LT(utrp.frame_size, trp.frame_size * 3 / 2);
}

TEST(UtrpOptimizer, FrameGrowsWithBudget) {
  const auto c10 = optimize_utrp_frame(1000, 10, 0.95, 10, 0).frame_size;
  const auto c40 = optimize_utrp_frame(1000, 10, 0.95, 40, 0).frame_size;
  const auto c100 = optimize_utrp_frame(1000, 10, 0.95, 100, 0).frame_size;
  EXPECT_LE(c10, c40);
  EXPECT_LT(c40, c100);
}

TEST(UtrpOptimizer, ExpectedCprimeMatchesTheorem3) {
  const auto plan = optimize_utrp_frame(500, 5, 0.95, 20);
  const double p_empty = rfid::math::empty_slot_probability(
      500 - 5 - 1, plan.frame_size, EmptySlotModel::kPoissonApprox);
  EXPECT_NEAR(plan.expected_cprime, 20.0 / p_empty, 1e-9);
  EXPECT_LT(plan.expected_cprime, plan.frame_size);
}

TEST(UtrpOptimizer, RejectsBadParameters) {
  EXPECT_THROW((void)optimize_utrp_frame(0, 0, 0.95, 20), std::invalid_argument);
  EXPECT_THROW((void)optimize_utrp_frame(10, 1, 1.5, 20), std::invalid_argument);
}

// Parameterized sweep over the paper's full evaluation grid: both optimizers
// must produce frames satisfying their constraints for every (n, m) pair of
// Figs. 4–7.
class PaperGrid
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(PaperGrid, BothOptimizersSatisfyConstraints) {
  const auto [n, m] = GetParam();
  const double alpha = 0.95;
  const auto trp = optimize_trp_frame(n, m, alpha);
  EXPECT_GT(trp.predicted_detection, alpha);
  const auto utrp = optimize_utrp_frame(n, m, alpha, 20);
  EXPECT_GT(utrp.predicted_detection, alpha);
  EXPECT_GE(utrp.frame_size, trp.frame_size);
}

INSTANTIATE_TEST_SUITE_P(
    EvaluationSection, PaperGrid,
    ::testing::Combine(::testing::Values(100u, 400u, 800u, 1200u, 1600u, 2000u),
                       ::testing::Values(5u, 10u, 20u, 30u)));

// ------------------------------------------------------------ plan memo --

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_plan(const TrpPlan& a, const TrpPlan& b) {
  return a.frame_size == b.frame_size &&
         same_bits(a.predicted_detection, b.predicted_detection);
}

bool same_plan(const UtrpPlan& a, const UtrpPlan& b) {
  return a.frame_size == b.frame_size && a.optimal_frame == b.optimal_frame &&
         same_bits(a.predicted_detection, b.predicted_detection) &&
         same_bits(a.expected_cprime, b.expected_cprime);
}

struct TrpShape {
  std::uint64_t n, m;
  double alpha;
  EmptySlotModel model;
};
struct UtrpShape {
  std::uint64_t n, m;
  double alpha;
  std::uint64_t c;
  std::uint32_t slack;
};
struct FusedShape {
  std::uint64_t n, m;
  double alpha;
  FusedSizingParams params;
};

// The benchmark's zone shapes — svc_trp/svc_utrp/svc_watch zones of 250
// tags with m = 2 (UTRP at c = 100), fleet_2m's 10^6-tag zones with
// m = 500 — plus a spread of others, every model and optimizer.
const std::vector<TrpShape> kTrpShapes = {
    {250, 2, 0.95, EmptySlotModel::kPoissonApprox},
    {1000000, 500, 0.95, EmptySlotModel::kPoissonApprox},
    {100, 0, 0.99, EmptySlotModel::kPoissonApprox},
    {2000, 30, 0.9, EmptySlotModel::kPoissonApprox},
    {300, 3, 0.95, EmptySlotModel::kExact},
};
const std::vector<UtrpShape> kUtrpShapes = {
    {250, 2, 0.95, 100, 8},
    {1000, 10, 0.95, 20, 8},
    {500, 5, 0.95, 20, 0},
};
const std::vector<FusedShape> kFusedShapes = {
    {250, 2, 0.95, FusedSizingParams{}},
    {200, 30, 0.95, FusedSizingParams{3, 0, 0.05, 0.025}},
    {200, 30, 0.95, FusedSizingParams{3, 1, 0.05, 0.025}},
};

TEST(PlanMemo, RepeatedCallsReturnTheFirstSolveBitForBit) {
  clear_plan_memo();
  std::vector<TrpPlan> trp;
  std::vector<UtrpPlan> utrp;
  std::vector<TrpPlan> fused;
  for (const auto& s : kTrpShapes) {
    trp.push_back(optimize_trp_frame(s.n, s.m, s.alpha, s.model));
  }
  for (const auto& s : kUtrpShapes) {
    utrp.push_back(optimize_utrp_frame(s.n, s.m, s.alpha, s.c, s.slack));
  }
  for (const auto& s : kFusedShapes) {
    fused.push_back(optimize_fused_trp_frame(s.n, s.m, s.alpha, s.params));
  }
  const std::uint64_t shapes =
      kTrpShapes.size() + kUtrpShapes.size() + kFusedShapes.size();
  EXPECT_EQ(plan_memo_stats().misses, shapes);
  EXPECT_EQ(plan_memo_stats().hits, 0u);
  EXPECT_EQ(plan_memo_stats().entries, shapes);

  for (int repeat = 0; repeat < 2; ++repeat) {
    for (std::size_t i = 0; i < kTrpShapes.size(); ++i) {
      const auto& s = kTrpShapes[i];
      EXPECT_TRUE(same_plan(optimize_trp_frame(s.n, s.m, s.alpha, s.model),
                            trp[i]))
          << "n=" << s.n << " m=" << s.m;
    }
    for (std::size_t i = 0; i < kUtrpShapes.size(); ++i) {
      const auto& s = kUtrpShapes[i];
      EXPECT_TRUE(same_plan(
          optimize_utrp_frame(s.n, s.m, s.alpha, s.c, s.slack), utrp[i]))
          << "n=" << s.n << " m=" << s.m << " c=" << s.c;
    }
    for (std::size_t i = 0; i < kFusedShapes.size(); ++i) {
      const auto& s = kFusedShapes[i];
      EXPECT_TRUE(same_plan(
          optimize_fused_trp_frame(s.n, s.m, s.alpha, s.params), fused[i]))
          << "n=" << s.n << " k=" << s.params.readers;
    }
  }
  EXPECT_EQ(plan_memo_stats().misses, shapes);
  EXPECT_EQ(plan_memo_stats().hits, 2 * shapes);
  EXPECT_EQ(plan_memo_stats().entries, shapes);

  // svc_utrp's zone shape, pinned: a change here is a changed simulation.
  EXPECT_EQ(optimize_utrp_frame(250, 2, 0.95, 100, 8).frame_size, 863u);

  // Every input is part of the key: a neighbouring alpha, model, slack or
  // reader model is a different plan, not a hit on this one.
  const std::uint64_t before = plan_memo_stats().misses;
  (void)optimize_trp_frame(250, 2, std::nextafter(0.95, 1.0));
  (void)optimize_trp_frame(250, 2, 0.95, EmptySlotModel::kExact);
  (void)optimize_utrp_frame(250, 2, 0.95, 100, 9);
  (void)optimize_fused_trp_frame(200, 30, 0.95,
                                 FusedSizingParams{3, 1, 0.05, 0.02});
  EXPECT_EQ(plan_memo_stats().misses, before + 4);
}

TEST(PlanMemo, InvalidAndUnsatisfiableInputsThrowOnEveryCallAndStoreNothing) {
  clear_plan_memo();
  for (int call = 0; call < 3; ++call) {
    // Invalid: rejected before the lookup.
    EXPECT_THROW((void)optimize_trp_frame(0, 0, 0.95), std::invalid_argument);
    EXPECT_THROW((void)optimize_trp_frame(5, 5, 0.95), std::invalid_argument);
    EXPECT_THROW((void)optimize_trp_frame(10, 1, 1.0), std::invalid_argument);
    EXPECT_THROW((void)optimize_utrp_frame(0, 0, 0.95, 20),
                 std::invalid_argument);
    EXPECT_THROW((void)optimize_utrp_frame(10, 1, 1.5, 20),
                 std::invalid_argument);
    EXPECT_THROW((void)optimize_fused_trp_frame(100, 2, 0.95,
                                                FusedSizingParams{2, 1}),
                 std::invalid_argument);
    // Unsatisfiable: no frame up to kMaxFrameSize meets alpha.
    EXPECT_THROW((void)optimize_trp_frame(10, 0, 1.0 - 1e-16),
                 std::invalid_argument);
    EXPECT_THROW((void)optimize_utrp_frame(100, 5, 0.95, 1000000000),
                 std::invalid_argument);
    EXPECT_THROW((void)optimize_fused_trp_frame(
                     100, 2, 0.95, FusedSizingParams{3, 0, 0.5, 0.025}),
                 std::invalid_argument);
  }
  const auto stats = plan_memo_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 9u);  // only the unsatisfiable calls looked up
}

TEST(PlanMemo, StaysWithinItsCapacityAndExactAfterEviction) {
  clear_plan_memo();
  const std::size_t keys = kPlanMemoCapacity + 50;
  const auto alpha_of = [](std::size_t i) {
    return 0.5 + static_cast<double>(i) * 1e-4;
  };
  std::vector<TrpPlan> cold;
  cold.reserve(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    cold.push_back(optimize_trp_frame(40, 0, alpha_of(i)));
    ASSERT_LE(plan_memo_stats().entries, kPlanMemoCapacity);
  }
  EXPECT_EQ(plan_memo_stats().entries, kPlanMemoCapacity);

  // The oldest plans were evicted (a re-solve), the newest are still held.
  auto stats = plan_memo_stats();
  EXPECT_TRUE(same_plan(optimize_trp_frame(40, 0, alpha_of(keys - 1)),
                        cold[keys - 1]));
  EXPECT_EQ(plan_memo_stats().hits, stats.hits + 1);
  EXPECT_TRUE(same_plan(optimize_trp_frame(40, 0, alpha_of(0)), cold[0]));
  EXPECT_EQ(plan_memo_stats().misses, stats.misses + 1);

  for (std::size_t i = 0; i < keys; ++i) {
    EXPECT_TRUE(same_plan(optimize_trp_frame(40, 0, alpha_of(i)), cold[i]))
        << "key " << i;
  }
  EXPECT_LE(plan_memo_stats().entries, kPlanMemoCapacity);
}

TEST(PlanMemo, ConcurrentCallersGetIdenticalPlans) {
  // Cold single-threaded reference, then eight threads racing on an empty
  // memo over overlapping keys in different orders.
  clear_plan_memo();
  const UtrpShape u{200, 2, 0.95, 20, 8};
  const UtrpPlan utrp_ref =
      optimize_utrp_frame(u.n, u.m, u.alpha, u.c, u.slack);
  std::vector<TrpPlan> trp_ref;
  for (std::uint64_t n = 100; n < 400; n += 20) {
    trp_ref.push_back(optimize_trp_frame(n, 2, 0.95));
  }
  const FusedSizingParams params{3, 1, 0.05, 0.025};
  const TrpPlan fused_ref = optimize_fused_trp_frame(200, 30, 0.95, params);
  clear_plan_memo();

  constexpr std::size_t kThreads = 8;
  std::latch start(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t k = 0; k < trp_ref.size(); ++k) {
          const std::size_t i = (k + t) % trp_ref.size();
          const std::uint64_t n = 100 + 20 * i;
          if (!same_plan(optimize_trp_frame(n, 2, 0.95), trp_ref[i])) {
            ++mismatches[t];
          }
        }
        if (!same_plan(optimize_utrp_frame(u.n, u.m, u.alpha, u.c, u.slack),
                       utrp_ref)) {
          ++mismatches[t];
        }
        if (!same_plan(optimize_fused_trp_frame(200, 30, 0.95, params),
                       fused_ref)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  const auto stats = plan_memo_stats();
  EXPECT_EQ(stats.entries, trp_ref.size() + 2);
  EXPECT_EQ(stats.hits + stats.misses,
            kThreads * 3 * (trp_ref.size() + 2));
}

}  // namespace
