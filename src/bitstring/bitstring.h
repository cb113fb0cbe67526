// The protocol artifact exchanged between reader and server: a frame-length
// bitstring with one bit per ALOHA slot (1 = at least one tag replied).
//
// Bitstring is a fixed-length dynamic bitset with the algebra the protocols
// and attacks need: OR (Alg. 4 combines two partial scans), XOR/difference
// (server-side verification), population count, and hex round-tripping for
// the wire format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rfid::util {
class Decoder;
class Encoder;
}  // namespace rfid::util

namespace rfid::bits {

class Bitstring {
 public:
  /// An all-zero bitstring of `size` bits.
  explicit Bitstring(std::size_t size = 0);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Reads bit `pos`; pos must be < size().
  [[nodiscard]] bool test(std::size_t pos) const;
  void set(std::size_t pos, bool value = true);
  void reset(std::size_t pos) { set(pos, false); }
  void clear() noexcept;  // zero all bits, keep the size

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// Index of the first bit where *this and other differ, or nullopt if the
  /// strings are identical. Sizes must match.
  [[nodiscard]] std::optional<std::size_t> first_difference(const Bitstring& other) const;

  /// Number of differing bit positions (Hamming distance). Sizes must match.
  [[nodiscard]] std::size_t hamming_distance(const Bitstring& other) const;

  /// In-place bitwise algebra; sizes must match.
  Bitstring& operator|=(const Bitstring& other);
  Bitstring& operator&=(const Bitstring& other);
  Bitstring& operator^=(const Bitstring& other);

  [[nodiscard]] friend Bitstring operator|(Bitstring a, const Bitstring& b) {
    a |= b;
    return a;
  }
  [[nodiscard]] friend Bitstring operator&(Bitstring a, const Bitstring& b) {
    a &= b;
    return a;
  }
  [[nodiscard]] friend Bitstring operator^(Bitstring a, const Bitstring& b) {
    a ^= b;
    return a;
  }

  [[nodiscard]] bool operator==(const Bitstring& other) const noexcept = default;

  /// Hex encoding of the underlying words (lowercase, little-endian word
  /// order, padded); to_hex/from_hex round-trip exactly.
  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] static Bitstring from_hex(std::size_t size, const std::string& hex);

  /// "0101..." rendering, index 0 first — handy in tests and examples.
  [[nodiscard]] std::string to_binary_string() const;

  /// Raw 64-bit storage words, bit i living at word i/64, bit i%64. The
  /// mutable overload is the seam the bulk kernels scatter through
  /// (tag/columnar.h): callers must never set a bit at or beyond size() —
  /// the tail-masking invariant behind count()/equality is not re-checked.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }

  /// Bits per storage word (the granularity of words()).
  static constexpr std::size_t kBitsPerWord = 64;

 private:
  static constexpr std::size_t kWordBits = 64;
  [[nodiscard]] static std::size_t word_count(std::size_t bits) noexcept {
    return (bits + kWordBits - 1) / kWordBits;
  }
  void check_same_size(const Bitstring& other) const;
  /// Zeroes bits beyond size_ in the last word (kept as an invariant so
  /// count()/equality can operate on whole words).
  void mask_tail() noexcept;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Codec layout (util/codec.h): the u64 bit count, then to_hex() as a
/// string. get() rejects a hex length that does not match the count.
void put(util::Encoder& out, const Bitstring& bits);
void get(util::Decoder& in, Bitstring& bits);

}  // namespace rfid::bits
