// One garbage battery for every decoder that reads bytes from outside the
// process (the reader link's wire messages, the service protocol's
// payloads). Starting from one valid encoding it feeds the decoder three
// kinds of hostile input:
//
//   * every truncation of the encoding (lengths 0 .. size - 1),
//   * every single-bit flip of it,
//   * `random_buffers` seeded random buffers of up to twice its size.
//
// Each call must either decode or throw std::invalid_argument, the
// library's "malformed input" exception. Any other exception (a
// std::logic_error from an internal invariant, std::length_error or
// std::bad_alloc from a forged count) fails the test; a crash or an
// out-of-bounds read fails the binary, under ASan in CI.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/random.h"

namespace rfid::test {

template <class Decode>
void expect_decoder_survives_garbage(std::string_view name,
                                     std::span<const std::byte> valid,
                                     Decode decode, std::uint64_t seed = 1,
                                     std::size_t random_buffers = 300) {
  ASSERT_NO_THROW((void)decode(valid))
      << name << ": the valid encoding must decode";
  const auto feed = [&](std::span<const std::byte> input,
                        std::string_view kind, std::size_t index) {
    try {
      (void)decode(input);
    } catch (const std::invalid_argument&) {
      // Rejected as malformed: the one allowed failure.
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ", " << kind << " " << index
                    << ": threw other than std::invalid_argument: "
                    << e.what();
    } catch (...) {
      ADD_FAILURE() << name << ", " << kind << " " << index
                    << ": threw a non-standard exception";
    }
  };

  for (std::size_t length = 0; length < valid.size(); ++length) {
    feed(valid.first(length), "truncation to length", length);
  }
  std::vector<std::byte> flipped(valid.begin(), valid.end());
  for (std::size_t bit = 0; bit < flipped.size() * 8; ++bit) {
    const std::byte mask{static_cast<unsigned char>(1u << (bit % 8))};
    flipped[bit / 8] ^= mask;
    feed(flipped, "flip of bit", bit);
    flipped[bit / 8] ^= mask;
  }
  util::Rng rng(seed);
  for (std::size_t i = 0; i < random_buffers; ++i) {
    std::vector<std::byte> buffer(rng.below(2 * valid.size() + 1));
    for (std::byte& b : buffer) b = static_cast<std::byte>(rng());
    feed(buffer, "random buffer", i);
  }
}

}  // namespace rfid::test
