#include "storage/record_log.h"

#include <cstdint>
#include <limits>

#include "hash/fnv.h"
#include "util/codec.h"
#include "util/expect.h"

namespace rfid::storage {

std::string frame_record(std::span<const std::byte> payload) {
  RFID_EXPECT(payload.size() <= std::numeric_limits<std::uint32_t>::max(),
              "record payload too long to frame");
  util::Encoder header;
  header.put_u32(static_cast<std::uint32_t>(payload.size()));
  header.put_u64(hash::fnv1a64(payload));
  std::string out;
  out.reserve(kRecordFrameHeader + payload.size());
  out.append(reinterpret_cast<const char*>(header.bytes().data()),
             kRecordFrameHeader);
  out.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  return out;
}

std::optional<std::span<const std::byte>> frame_at(std::string_view bytes,
                                                   std::size_t pos) {
  if (pos > bytes.size() || bytes.size() - pos < kRecordFrameHeader) {
    return std::nullopt;
  }
  const auto rest =
      std::as_bytes(std::span(bytes.data(), bytes.size())).subspan(pos);
  util::Decoder header(rest.first(kRecordFrameHeader));
  const std::uint32_t len = header.get_u32();
  const std::uint64_t declared = header.get_u64();
  if (rest.size() - kRecordFrameHeader < len) return std::nullopt;  // torn
  const auto payload = rest.subspan(kRecordFrameHeader, len);
  if (hash::fnv1a64(payload) != declared) return std::nullopt;  // rotted
  return payload;
}

void replace_atomically(StorageBackend& backend, const std::string& name,
                        const std::string& tmp, std::string_view bytes) {
  if (backend.exists(tmp)) backend.remove(tmp);
  backend.append(tmp, bytes);
  backend.flush(tmp);
  backend.rename(tmp, name);
}

}  // namespace rfid::storage
