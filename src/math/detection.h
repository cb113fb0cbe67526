// Theorem 1 of the paper: the probability that TRP detects a non-intact set.
//
//   g(n, x, f) = 1 − Σ_{i=0}^{f} C(f,i) p^i (1−p)^{f−i} · (1 − i/f)^x
//
// where n is the set size, x the number of missing tags, f the frame size,
// and p the probability that a slot is empty of the n−x present tags. The
// paper uses the Poisson approximation p = e^{−(n−x)/f}; the exact balls-in-
// bins value is p = (1 − 1/f)^{n−x}. Both are offered; the approximation is
// the default so optimized frame sizes match the paper's.
//
// Interpretation: N0 ~ Binomial(f, p) counts empty slots among the present
// tags; each of the x missing tags lands in an empty slot (and is thereby
// detected as a 1→0 flip in the bitstring) with probability N0/f.
#pragma once

#include <cstdint>
#include <string_view>

namespace rfid::util {
class Decoder;
class Encoder;
}  // namespace rfid::util

namespace rfid::math {

enum class EmptySlotModel : std::uint8_t {
  kPoissonApprox,  // p = e^{−(n−x)/f}   (paper's choice)
  kExact,          // p = (1 − 1/f)^{n−x}
};

[[nodiscard]] std::string_view to_string(EmptySlotModel model) noexcept;

/// Codec layout (util/codec.h): one byte; get() rejects values past kExact.
void put(util::Encoder& out, EmptySlotModel model);
void get(util::Decoder& in, EmptySlotModel& model);

/// The per-slot empty probability for n_present tags in f slots.
[[nodiscard]] double empty_slot_probability(std::uint64_t n_present,
                                            std::uint64_t frame_size,
                                            EmptySlotModel model);

/// g(n, x, f): probability that at least one of x missing tags is noticed.
/// Requires x <= n and f >= 1. Returns 0 when x == 0 (nothing to detect).
[[nodiscard]] double detection_probability(
    std::uint64_t n, std::uint64_t x, std::uint64_t f,
    EmptySlotModel model = EmptySlotModel::kPoissonApprox);

/// 1 − g(n, x, f).
[[nodiscard]] double miss_probability(
    std::uint64_t n, std::uint64_t x, std::uint64_t f,
    EmptySlotModel model = EmptySlotModel::kPoissonApprox);

}  // namespace rfid::math
