#include "math/detection.h"

#include <cmath>

#include "math/binomial.h"
#include "util/codec.h"
#include "util/expect.h"

namespace rfid::math {

std::string_view to_string(EmptySlotModel model) noexcept {
  switch (model) {
    case EmptySlotModel::kPoissonApprox: return "poisson-approx";
    case EmptySlotModel::kExact: return "exact";
  }
  return "unknown";
}

void put(util::Encoder& out, EmptySlotModel model) {
  out.put_u8(static_cast<std::uint8_t>(model));
}

void get(util::Decoder& in, EmptySlotModel& model) {
  const std::uint8_t raw = in.get_u8();
  RFID_EXPECT(raw <= static_cast<std::uint8_t>(EmptySlotModel::kExact),
              "bad empty-slot model");
  model = static_cast<EmptySlotModel>(raw);
}

double empty_slot_probability(std::uint64_t n_present, std::uint64_t frame_size,
                              EmptySlotModel model) {
  RFID_EXPECT(frame_size >= 1, "frame size must be positive");
  const double n = static_cast<double>(n_present);
  const double f = static_cast<double>(frame_size);
  switch (model) {
    case EmptySlotModel::kPoissonApprox:
      return std::exp(-n / f);
    case EmptySlotModel::kExact:
      if (frame_size == 1) return n_present == 0 ? 1.0 : 0.0;
      return std::exp(n * std::log1p(-1.0 / f));
  }
  return 0.0;
}

double detection_probability(std::uint64_t n, std::uint64_t x, std::uint64_t f,
                             EmptySlotModel model) {
  RFID_EXPECT(x <= n, "cannot have more missing tags than tags");
  RFID_EXPECT(f >= 1, "frame size must be positive");
  if (x == 0) return 0.0;  // an intact set can never be flagged "not intact"

  const double p = empty_slot_probability(n - x, f, model);
  const double fd = static_cast<double>(f);
  const double xd = static_cast<double>(x);

  // miss = Σ_i Pr(N0 = i) · (1 − i/f)^x, summed over the significant window
  // of N0 ~ Binomial(f, p).
  double miss = 0.0;
  for_each_binomial_outcome(f, p, [&](std::uint64_t i, double pmf) {
    if (i >= f) return;  // (1 − f/f)^x = 0 for x >= 1
    const double frac = static_cast<double>(i) / fd;
    miss += pmf * std::exp(xd * std::log1p(-frac));
  });
  if (miss < 0.0) miss = 0.0;
  if (miss > 1.0) miss = 1.0;
  return 1.0 - miss;
}

double miss_probability(std::uint64_t n, std::uint64_t x, std::uint64_t f,
                        EmptySlotModel model) {
  return 1.0 - detection_probability(n, x, f, model);
}

}  // namespace rfid::math
