// 96-bit EPC-style tag identifiers.
//
// Real Gen2 tags carry a 96-bit EPC; we model the full width so IDs are
// realistic, and fold it to the 64-bit word the paper's slot hash consumes
// (h operates on "ID ⊕ r", an abstract word). The fold is a fixed public
// bijection-per-high-word, so equal IDs always fold equally on the tag, the
// reader, and the server.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <tuple>

namespace rfid::tag {

class TagId {
 public:
  constexpr TagId() noexcept = default;
  constexpr TagId(std::uint32_t hi, std::uint64_t lo) noexcept : hi_(hi), lo_(lo) {}

  [[nodiscard]] constexpr std::uint32_t hi() const noexcept { return hi_; }
  [[nodiscard]] constexpr std::uint64_t lo() const noexcept { return lo_; }

  /// The 64-bit word fed to the slot hash: the low word XOR a multiplicative
  /// spread of the high 32 bits (odd constant, so distinct high words map to
  /// distinct offsets).
  [[nodiscard]] constexpr std::uint64_t slot_word() const noexcept {
    return lo_ ^ (static_cast<std::uint64_t>(hi_) * 0x9e3779b97f4a7c15ULL);
  }

  /// "urn:epc:raw:HHHHHHHH.LLLLLLLLLLLLLLLL"-style rendering (hex fields).
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const TagId&, const TagId&) noexcept = default;

  /// Codec layout (util/codec.h): u32 hi, then u64 lo.
  static auto fields(auto& id) { return std::tie(id.hi_, id.lo_); }

 private:
  std::uint32_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

}  // namespace rfid::tag
