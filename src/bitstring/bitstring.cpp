#include "bitstring/bitstring.h"

#include <bit>

#include "util/codec.h"
#include "util/expect.h"

namespace rfid::bits {

Bitstring::Bitstring(std::size_t size) : size_(size), words_(word_count(size), 0) {}

bool Bitstring::test(std::size_t pos) const {
  RFID_EXPECT(pos < size_, "bit index out of range");
  return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1U;
}

void Bitstring::set(std::size_t pos, bool value) {
  RFID_EXPECT(pos < size_, "bit index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (pos % kWordBits);
  if (value) {
    words_[pos / kWordBits] |= mask;
  } else {
    words_[pos / kWordBits] &= ~mask;
  }
}

void Bitstring::clear() noexcept {
  for (auto& w : words_) w = 0;
}

std::size_t Bitstring::count() const noexcept {
  std::size_t total = 0;
  for (const auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::optional<std::size_t> Bitstring::first_difference(const Bitstring& other) const {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t diff = words_[i] ^ other.words_[i];
    if (diff != 0) {
      return i * kWordBits + static_cast<std::size_t>(std::countr_zero(diff));
    }
  }
  return std::nullopt;
}

std::size_t Bitstring::hamming_distance(const Bitstring& other) const {
  check_same_size(other);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  }
  return total;
}

Bitstring& Bitstring::operator|=(const Bitstring& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

Bitstring& Bitstring::operator&=(const Bitstring& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitstring& Bitstring::operator^=(const Bitstring& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

std::string Bitstring::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(words_.size() * 16);
  for (const auto w : words_) {
    for (int nibble = 15; nibble >= 0; --nibble) {
      out.push_back(kDigits[(w >> (4 * nibble)) & 0xfU]);
    }
  }
  return out;
}

Bitstring Bitstring::from_hex(std::size_t size, const std::string& hex) {
  // Checked before allocating: `size` may come from untrusted input, and the
  // hex string it must match is already in memory.
  const std::size_t words = size / kWordBits + (size % kWordBits == 0 ? 0 : 1);
  RFID_EXPECT(hex.size() % 16 == 0 && hex.size() / 16 == words,
              "hex length does not match bitstring size");
  Bitstring bs(size);
  for (std::size_t i = 0; i < bs.words_.size(); ++i) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < 16; ++j) {
      const char ch = hex[i * 16 + j];
      std::uint64_t digit = 0;
      if (ch >= '0' && ch <= '9') digit = static_cast<std::uint64_t>(ch - '0');
      else if (ch >= 'a' && ch <= 'f') digit = static_cast<std::uint64_t>(ch - 'a' + 10);
      else if (ch >= 'A' && ch <= 'F') digit = static_cast<std::uint64_t>(ch - 'A' + 10);
      else RFID_EXPECT(false, "invalid hex digit");
      w = (w << 4) | digit;
    }
    bs.words_[i] = w;
  }
  // Reject payload bits beyond the declared size rather than silently
  // dropping them — a mismatch means a corrupted or mis-sized message.
  Bitstring copy = bs;
  copy.mask_tail();
  RFID_EXPECT(copy.words_ == bs.words_, "hex encodes bits beyond declared size");
  return bs;
}

std::string Bitstring::to_binary_string() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(test(i) ? '1' : '0');
  return out;
}

void Bitstring::check_same_size(const Bitstring& other) const {
  RFID_EXPECT(size_ == other.size_, "bitstring sizes differ");
}

void Bitstring::mask_tail() noexcept {
  const std::size_t tail_bits = size_ % kWordBits;
  if (tail_bits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail_bits) - 1;
  }
}

void put(util::Encoder& out, const Bitstring& bits) {
  out.put_u64(bits.size());
  out.put_string(bits.to_hex());
}

void get(util::Decoder& in, Bitstring& bits) {
  const std::uint64_t size = in.get_u64();
  bits = Bitstring::from_hex(size, in.get_string());
}

}  // namespace rfid::bits
