#include "math/frame_optimizer.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/approximation.h"
#include "math/binomial.h"
#include "math/plan_memo.h"
#include "util/expect.h"
#include "util/log.h"

namespace rfid::math {

namespace {

void expect_frame_inputs(std::uint64_t n, std::uint64_t m, double alpha) {
  RFID_EXPECT(n >= 1, "need at least one tag");
  RFID_EXPECT(m + 1 <= n, "tolerance m must satisfy m + 1 <= n");
  RFID_EXPECT(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
}

TrpPlan solve_trp_frame(std::uint64_t n, std::uint64_t m, double alpha,
                        EmptySlotModel model) {
  const auto pred = [&](std::uint32_t f) {
    return detection_probability(n, m + 1, f, model) > alpha;
  };
  // The mean-field closed form lands within a couple percent of the true
  // optimum, so the bracket search starts essentially at the answer.
  const std::uint32_t hint = approximate_trp_frame(n, m, alpha);
  TrpPlan plan;
  plan.frame_size = minimal_satisfying_frame(pred, hint);
  plan.predicted_detection =
      detection_probability(n, m + 1, plan.frame_size, model);
  return plan;
}

UtrpPlan solve_utrp_frame(std::uint64_t n, std::uint64_t m, double alpha,
                          std::uint64_t c, std::uint32_t slack_slots,
                          EmptySlotModel model) {
  const auto pred = [&](std::uint32_t f) {
    return utrp_detection_probability(n, m, c, f, model) > alpha;
  };
  // UTRP never needs a smaller frame than TRP (the adversary only gains
  // information relative to TRP), so start the bracket search there.
  const TrpPlan trp = solve_trp_frame(n, m, alpha, model);

  UtrpPlan plan;
  plan.optimal_frame = minimal_satisfying_frame(pred, trp.frame_size);
  plan.frame_size = plan.optimal_frame + slack_slots;
  plan.predicted_detection =
      utrp_detection_probability(n, m, c, plan.frame_size, model);
  plan.expected_cprime =
      static_cast<double>(c) /
      empty_slot_probability(n - m - 1, plan.frame_size, model);
  RFID_ENSURE(plan.predicted_detection > alpha,
              "slack must not lower the detection probability");
  return plan;
}

}  // namespace

TrpPlan optimize_trp_frame(std::uint64_t n, std::uint64_t m, double alpha,
                           EmptySlotModel model) {
  expect_frame_inputs(n, m, alpha);
  return detail::memoized_plan<TrpPlan>(
      {.kind = detail::PlanKind::kTrp,
       .model = model,
       .n = n,
       .m = m,
       .alpha_bits = std::bit_cast<std::uint64_t>(alpha)},
      [&] { return solve_trp_frame(n, m, alpha, model); });
}

double utrp_detection_probability(std::uint64_t n, std::uint64_t m,
                                  std::uint64_t c, std::uint64_t f,
                                  EmptySlotModel model) {
  RFID_EXPECT(n >= 1, "need at least one tag");
  RFID_EXPECT(m + 1 <= n, "tolerance m must satisfy m + 1 <= n");
  RFID_EXPECT(f >= 1, "frame size must be positive");

  const std::uint64_t s1 = n - m - 1;  // tags the dishonest reader keeps
  const std::uint64_t s2 = m + 1;      // stolen tags at the collaborator

  // Theorem 3: expected slots scanned until c empty-for-s1 slots seen.
  const double fd = static_cast<double>(f);
  const double p_empty = empty_slot_probability(s1, f, model);
  const double cprime = p_empty > 0.0
                            ? static_cast<double>(c) / p_empty
                            : std::numeric_limits<double>::infinity();
  if (!(cprime < fd)) return 0.0;  // adversary coordinates the entire frame

  const double q = 1.0 - cprime / fd;  // P(tag replies after the first c' slots)
  const auto f_eff = static_cast<std::uint64_t>(std::llround(fd - cprime));
  if (f_eff == 0) return 0.0;

  // Eq. 3 double sum over x ~ B(s2, q) and y ~ B(s1, q); y is truncated to
  // its significant window, x (at most m+1 ≤ a few dozen) is kept in full.
  double detect = 0.0;
  for (std::uint64_t i = 0; i <= s2; ++i) {
    const double px = binomial_pmf(s2, i, q);
    if (px < 1e-14 || i == 0) continue;  // i == 0 contributes g(..,0,..) = 0
    for_each_binomial_outcome(s1, q, [&](std::uint64_t j, double py) {
      detect += px * py * detection_probability(i + j, i, f_eff, model);
    });
  }
  if (detect < 0.0) detect = 0.0;
  if (detect > 1.0) detect = 1.0;
  return detect;
}

UtrpPlan optimize_utrp_frame(std::uint64_t n, std::uint64_t m, double alpha,
                             std::uint64_t c, std::uint32_t slack_slots,
                             EmptySlotModel model) {
  expect_frame_inputs(n, m, alpha);
  return detail::memoized_plan<UtrpPlan>(
      {.kind = detail::PlanKind::kUtrp,
       .model = model,
       .n = n,
       .m = m,
       .alpha_bits = std::bit_cast<std::uint64_t>(alpha),
       .comm_budget = c,
       .slack_slots = slack_slots},
      [&] { return solve_utrp_frame(n, m, alpha, c, slack_slots, model); });
}

}  // namespace rfid::math
