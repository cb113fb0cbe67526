#include "wire/frame.h"

#include <utility>

#include "hash/fnv.h"
#include "util/codec.h"
#include "util/expect.h"

namespace rfid::wire {

constexpr std::size_t kHeaderBytes = 5;    // type:u8 length:u32
constexpr std::size_t kChecksumBytes = 4;  // fnv1a32

std::vector<std::byte> encode_frame(std::uint8_t type,
                                    std::span<const std::byte> payload) {
  util::Encoder frame;
  frame.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  // A length-prefixed byte string after the type byte is exactly the
  // type:u8 length:u32 payload layout.
  frame.put_u8(type);
  frame.put_bytes(payload);
  frame.put_u32(hash::fnv1a32(frame.bytes()));
  return std::move(frame).take();
}

ParsedFrame parse_frame(std::span<const std::byte> bytes, std::uint32_t max_payload) {
  if (bytes.size() < kHeaderBytes) return {};  // kIncomplete
  util::Decoder header(bytes.first(kHeaderBytes));
  const std::uint8_t type = header.get_u8();
  const std::uint32_t length = header.get_u32();
  if (length > max_payload) return {ParsedFrame::kOversized, {}, 0};
  const std::size_t covered = kHeaderBytes + length;
  if (bytes.size() < covered + kChecksumBytes) return {};
  if (util::Decoder(bytes.subspan(covered, kChecksumBytes)).get_u32() !=
      hash::fnv1a32(bytes.first(covered))) {
    return {ParsedFrame::kBadChecksum, {}, 0};
  }
  return {ParsedFrame::kComplete, {type, bytes.subspan(kHeaderBytes, length)},
          covered + kChecksumBytes};
}

FrameView open_frame(std::span<const std::byte> bytes) {
  const ParsedFrame parsed = parse_frame(bytes, UINT32_MAX);
  RFID_EXPECT(parsed.status != ParsedFrame::kIncomplete, "truncated frame");
  RFID_EXPECT(parsed.status == ParsedFrame::kComplete, "bad frame checksum");
  RFID_EXPECT(parsed.size == bytes.size(), "trailing bytes after frame");
  return parsed.frame;
}

}  // namespace rfid::wire
