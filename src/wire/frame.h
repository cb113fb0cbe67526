// The one checksummed frame, shared by the reader link (wire/messages.h)
// and the service protocol (service/framing.h), little-endian on any host:
//
//   frame    := type:u8  length:u32  payload:length  checksum:u32
//   checksum := fnv1a32(type || length || payload)
//
// The checksum covers the header too, so a flipped length byte cannot
// resynchronize a stream onto garbage that happens to checksum clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rfid::wire {

/// A checked frame, viewed in the buffer it was parsed from.
struct FrameView {
  std::uint8_t type = 0;
  std::span<const std::byte> payload;
};

struct ParsedFrame {
  enum Status : std::uint8_t { kComplete, kIncomplete, kOversized, kBadChecksum };
  Status status = kIncomplete;
  FrameView frame;       // when kComplete
  std::size_t size = 0;  // bytes the frame spans, when kComplete
};

[[nodiscard]] std::vector<std::byte> encode_frame(
    std::uint8_t type, std::span<const std::byte> payload);

/// Parses the frame at the front of `bytes`; a length over `max_payload` is kOversized.
[[nodiscard]] ParsedFrame parse_frame(std::span<const std::byte> bytes,
                                      std::uint32_t max_payload);

/// Checks that `bytes` hold exactly one frame; throws std::invalid_argument otherwise.
[[nodiscard]] FrameView open_frame(std::span<const std::byte> bytes);

}  // namespace rfid::wire
