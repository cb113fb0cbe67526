// Little-endian byte codec shared by the binary payload formats: the
// server <-> reader wire messages (wire/messages.h), the service protocol
// (service/messages.h) and the three storage journals (storage/record_log.h).
//
// Fixed-width integers are little-endian regardless of host byte order,
// doubles travel as their IEEE-754 bit pattern, and byte strings carry a u32
// length prefix. Framing and checksums are the callers' business; this file
// only turns fields into bytes and back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rfid::util {

/// Append-only byte sink with primitive writers.
class Encoder {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  /// Length-prefixed (u32) byte string.
  void put_bytes(std::span<const std::byte> data);
  void put_string(std::string_view s);
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Forward-only reader over a byte span. All getters throw
/// std::invalid_argument on truncation — never read past the end.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::vector<std::byte> get_bytes();
  [[nodiscard]] std::string get_string();

  /// Reads a count prefix (u32, or u64 with Prefix = std::uint64_t) of
  /// elements that each encode to at least `min_element_bytes`, and throws
  /// std::invalid_argument when that many cannot fit in what remains. Read
  /// every count through here before reserving for it: a forged count then
  /// fails as malformed input, not as an allocation of gigabytes.
  template <class Prefix = std::uint32_t>
  [[nodiscard]] std::size_t get_count(std::size_t min_element_bytes) {
    static_assert(std::is_same_v<Prefix, std::uint32_t> ||
                  std::is_same_v<Prefix, std::uint64_t>);
    const std::uint64_t count = sizeof(Prefix) == 4 ? get_u32() : get_u64();
    if (count > remaining() / min_element_bytes) {
      throw std::invalid_argument("count exceeds payload");
    }
    return static_cast<std::size_t>(count);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  /// Asserts the whole payload was consumed (catches trailing garbage).
  void expect_exhausted() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

}  // namespace rfid::util
