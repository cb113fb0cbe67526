#include "wire/codec.h"

#include "hash/fnv.h"
#include "util/expect.h"

namespace rfid::wire {

std::vector<std::byte> frame_payload(std::span<const std::byte> payload) {
  util::Encoder enc;
  enc.put_bytes(payload);  // [u32 length][payload]
  enc.put_u32(hash::fnv1a32(payload));
  return std::move(enc).take();
}

std::vector<std::byte> unframe_payload(std::span<const std::byte> frame) {
  util::Decoder dec(frame);
  std::vector<std::byte> payload = dec.get_bytes();
  const std::uint32_t declared = dec.get_u32();
  dec.expect_exhausted();
  RFID_EXPECT(declared == hash::fnv1a32(payload), "frame checksum mismatch");
  return payload;
}

}  // namespace rfid::wire
