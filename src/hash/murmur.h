// MurmurHash3's 64-bit finalizer (Austin Appleby, public domain design),
// reimplemented.
//
// murmur3_fmix64 is a 5-instruction bijective mixer with excellent
// avalanche. It is the default slot-selection hash in this library: fast
// enough for hundreds of millions of per-slot evaluations in the
// Monte-Carlo benches while keeping Theorem 1's uniformity assumption
// honest (verified by chi-square tests in tests/hash_test.cpp).
#pragma once

#include <cstdint>

namespace rfid::hash {

/// MurmurHash3 64-bit finalizer (bijective on uint64).
[[nodiscard]] constexpr std::uint64_t murmur3_fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace rfid::hash
