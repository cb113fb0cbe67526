// Wire-level messages exchanged between server and reader.
//
// TRP uses a single (f, r) pair per round (Alg. 1); UTRP issues the frame
// size together with f random numbers up front (Alg. 5) — the reader must
// consume them strictly in order, one per re-seed, and has no discretion
// over any randomness.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

namespace rfid::protocol {

/// TRP challenge (Sec. 4.2): one frame size and one random number. A fresh
/// challenge is issued per round so previously collected bitstrings replay
/// as garbage.
struct TrpChallenge {
  std::uint32_t frame_size = 0;
  std::uint64_t r = 0;

  /// Codec layout (util/codec.h), shared by the reader link and the journal.
  static auto fields(auto& m) { return std::tie(m.frame_size, m.r); }
};

/// UTRP challenge (Alg. 5 line 1): (f, r_1, ..., r_f). seeds[0] opens the
/// frame; seeds[k] is used by the k-th re-seed.
struct UtrpChallenge {
  std::uint32_t frame_size = 0;
  std::vector<std::uint64_t> seeds;

  static auto fields(auto& m) { return std::tie(m.frame_size, m.seeds); }
};

/// Server-side verdict on a returned bitstring.
struct Verdict {
  bool intact = false;            // true: bitstring matched, set considered intact
  std::uint64_t mismatched_slots = 0;   // Hamming distance to the expected bitstring
  std::uint64_t first_mismatch_slot = 0;  // valid only when !intact
  bool deadline_met = true;       // UTRP: reader answered before the timer
};

}  // namespace rfid::protocol
