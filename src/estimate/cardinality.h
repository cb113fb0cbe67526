// Cardinality estimation from a TRP-style bitstring (extension module).
//
// The related-work line the paper builds on (Kodialam & Nandagopal, MobiCom
// 2006) estimates how many tags are present from the number of empty slots
// in one ALOHA frame: with n tags in f slots, E[empty fraction] = e^{−n/f},
// so  n̂ = −f · ln(n0 / f)  (the Zero Estimator). A monitoring server can run
// this for free on every TRP bitstring as a coarse cross-check: an estimate
// far below the enrolled size corroborates a "not intact" verdict, and the
// examples use it to triage between "a few tags missing" and "a pallet gone".
// The identification drill-down (protocol/identification.h) sizes each of
// its frames from it, as estimate-then-identify protocols do.
#pragma once

#include <cstdint>

#include "bitstring/bitstring.h"

namespace rfid::estimate {

struct CardinalityEstimate {
  double estimate = 0.0;    // n̂
  double std_error = 0.0;   // asymptotic standard error of n̂
  std::uint64_t empty_slots = 0;
  std::uint64_t frame_size = 0;
  bool saturated = false;   // no empty slots: estimate is a lower bound
};

/// Zero-estimator from an observed empty-slot count.
[[nodiscard]] CardinalityEstimate estimate_cardinality(std::uint64_t empty_slots,
                                                       std::uint64_t frame_size);

/// Convenience overload on a monitoring bitstring (0-bits are empty slots).
[[nodiscard]] CardinalityEstimate estimate_cardinality(const bits::Bitstring& bs);

}  // namespace rfid::estimate
