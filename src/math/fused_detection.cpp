#include "math/fused_detection.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "math/approximation.h"
#include "math/binomial.h"
#include "math/plan_memo.h"
#include "util/expect.h"

namespace rfid::math {

namespace {

void validate(const FusedSizingParams& params) {
  RFID_EXPECT(params.readers >= 1, "fused sizing needs at least one reader");
  // The masking guarantee is the strict majority: with 2a >= k the faulty
  // coalition can out-vote the honest readers and the analysis is void.
  RFID_EXPECT(2 * params.assumed_faulty < params.readers,
              "assumed_faulty must be a strict minority of the readers");
  RFID_EXPECT(params.slot_loss >= 0.0 && params.slot_loss < 1.0,
              "slot_loss must be in [0, 1)");
  RFID_EXPECT(params.alert_budget > 0.0 && params.alert_budget < 1.0,
              "alert_budget must be in (0, 1)");
}

}  // namespace

double fused_slot_false_empty(const FusedSizingParams& params) {
  validate(params);
  const std::uint32_t honest = params.readers - params.assumed_faulty;
  const std::uint32_t votes_needed = fused_vote_threshold(params.readers);
  if (params.slot_loss == 0.0 && honest >= votes_needed) return 0.0;
  // P(Binom(honest, 1-p) < votes_needed); votes_needed is small, sum the pmf.
  double below = 0.0;
  for (std::uint32_t j = 0; j < votes_needed && j <= honest; ++j) {
    below += binomial_pmf(honest, j, 1.0 - params.slot_loss);
  }
  return std::min(below, 1.0);
}

std::uint64_t fused_mismatch_threshold(std::uint64_t n, std::uint64_t f,
                                       const FusedSizingParams& params) {
  RFID_EXPECT(f >= 1, "frame size must be positive");
  const double eps = fused_slot_false_empty(params);
  if (eps <= 0.0) return 1;
  const std::uint64_t busy_bound = std::min(n, f);
  if (busy_bound == 0) return 1;
  // Smallest T with P(X >= T) <= budget, i.e. cdf(T-1) >= 1 - budget.
  const double target = 1.0 - params.alert_budget;
  std::uint64_t threshold = busy_bound + 1;  // unreachable: never alarms
  double cdf = 0.0;
  for_each_binomial_outcome(busy_bound, eps, [&](std::uint64_t k, double pmf) {
    cdf += pmf;
    if (threshold > busy_bound && cdf >= target) threshold = k + 1;
  });
  return threshold;
}

double fused_detection_probability(std::uint64_t n, std::uint64_t x,
                                   std::uint64_t f,
                                   const FusedSizingParams& params,
                                   EmptySlotModel model) {
  RFID_EXPECT(x <= n, "cannot have more missing tags than tags");
  RFID_EXPECT(f >= 1, "frame size must be positive");
  if (x == 0) return 0.0;

  const std::uint64_t threshold = fused_mismatch_threshold(n, f, params);
  if (threshold > x) return 0.0;  // even all x landing reads as noise

  const double p = empty_slot_probability(n - x, f, model);
  const double fd = static_cast<double>(f);
  const double xd = static_cast<double>(x);

  // miss = Sigma_i P(N0 = i) * P(Binom(x, i/f) < T) over the significant
  // window of N0 ~ Binom(f, p). The threshold==1 branch repeats Eq. 2's
  // exact arithmetic so the trustworthy-reader reduction is bit-identical
  // to detection_probability, optimizer boundaries included.
  double miss = 0.0;
  for_each_binomial_outcome(f, p, [&](std::uint64_t i, double pmf) {
    if (i >= f) return;  // every missing tag lands visibly; detection certain
    const double frac = static_cast<double>(i) / fd;
    double below;
    if (threshold == 1) {
      below = std::exp(xd * std::log1p(-frac));
    } else if (frac <= 0.0) {
      below = 1.0;  // nothing lands; mismatches stay below any threshold
    } else {
      below = 0.0;
      for (std::uint64_t j = 0; j < threshold && j <= x; ++j) {
        below += binomial_pmf(x, j, frac);
      }
      below = std::min(below, 1.0);
    }
    miss += pmf * below;
  });
  return 1.0 - std::clamp(miss, 0.0, 1.0);
}

namespace {

TrpPlan solve_fused_trp_frame(std::uint64_t n, std::uint64_t m, double alpha,
                              const FusedSizingParams& params,
                              EmptySlotModel model) {
  const auto pred = [&](std::uint32_t f) {
    return fused_detection_probability(n, m + 1, f, params, model) > alpha;
  };
  // The single-reader closed form is a lower bound on the fused optimum
  // (noise only raises T); it still lands near enough to seed the search.
  const std::uint32_t hint = approximate_trp_frame(n, m, alpha);
  TrpPlan plan;
  plan.frame_size = minimal_satisfying_frame(pred, hint);
  plan.predicted_detection =
      fused_detection_probability(n, m + 1, plan.frame_size, params, model);
  return plan;
}

}  // namespace

TrpPlan optimize_fused_trp_frame(std::uint64_t n, std::uint64_t m, double alpha,
                                 const FusedSizingParams& params,
                                 EmptySlotModel model) {
  RFID_EXPECT(n >= 1, "need at least one tag");
  RFID_EXPECT(m + 1 <= n, "tolerance m must satisfy m + 1 <= n");
  RFID_EXPECT(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
  validate(params);

  return detail::memoized_plan<TrpPlan>(
      {.kind = detail::PlanKind::kFused,
       .model = model,
       .n = n,
       .m = m,
       .alpha_bits = std::bit_cast<std::uint64_t>(alpha),
       .readers = params.readers,
       .assumed_faulty = params.assumed_faulty,
       .slot_loss_bits = std::bit_cast<std::uint64_t>(params.slot_loss),
       .alert_budget_bits = std::bit_cast<std::uint64_t>(params.alert_budget)},
      [&] { return solve_fused_trp_frame(n, m, alpha, params, model); });
}

}  // namespace rfid::math
