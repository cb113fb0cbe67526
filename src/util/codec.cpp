#include "util/codec.h"

#include <array>
#include <cstring>

#include "util/expect.h"

namespace rfid::util {

namespace {

/// The little-endian bytes of `v`, built with shifts: the same on any host.
template <class U>
std::array<std::byte, sizeof(U)> little_endian(U v) {
  std::array<std::byte, sizeof(U)> out;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    out[i] = static_cast<std::byte>(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return out;
}

/// The value whose little-endian bytes are `in`.
template <class U>
U from_little_endian(std::span<const std::byte, sizeof(U)> in) {
  U v = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    v |= std::to_integer<U>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void Encoder::put_u32(std::uint32_t v) {
  const auto bytes = little_endian(v);
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void Encoder::put_u64(std::uint64_t v) {
  const auto bytes = little_endian(v);
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void Encoder::put_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void Encoder::put_bytes(std::span<const std::byte> data) {
  RFID_EXPECT(data.size() <= 0xffffffffu, "byte string too long to encode");
  put_u32(static_cast<std::uint32_t>(data.size()));
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void Encoder::put_string(std::string_view s) {
  put_bytes(std::as_bytes(std::span(s.data(), s.size())));
}

void Decoder::need(std::size_t n) const {
  RFID_EXPECT(offset_ + n <= data_.size(), "truncated message");
}

std::uint8_t Decoder::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[offset_++]);
}

std::uint32_t Decoder::get_u32() {
  need(4);
  const auto v = from_little_endian<std::uint32_t>(data_.subspan(offset_).first<4>());
  offset_ += 4;
  return v;
}

std::uint64_t Decoder::get_u64() {
  need(8);
  const auto v = from_little_endian<std::uint64_t>(data_.subspan(offset_).first<8>());
  offset_ += 8;
  return v;
}

double Decoder::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::byte> Decoder::get_bytes() {
  const std::uint32_t length = get_u32();
  need(length);
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
                             data_.begin() + static_cast<std::ptrdiff_t>(offset_ + length));
  offset_ += length;
  return out;
}

std::string Decoder::get_string() {
  const auto raw = get_bytes();
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

void Decoder::expect_exhausted() const {
  RFID_EXPECT(remaining() == 0, "trailing bytes after message payload");
}

}  // namespace rfid::util
