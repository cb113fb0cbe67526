// Record log: the one on-disk frame under the three storage journals — the
// server WAL (journal.h), the fleet-run journal (fleet_journal.h) and the
// daemon checkpoint log (daemon_journal.h). Each format contributes only its
// magic line and its typed record payloads; the frame, the torn-tail rule
// and the atomic rewrite are decided here.
//
//   "<magic>\n"                                        file header
//   [u32 payload_len][u64 fnv1a64(payload)][payload]   repeated, little-endian
//
// Because a scan truncates at the first invalid record, a torn tail (crash
// mid-append) or a rotted byte shortens the log instead of failing recovery,
// and atomicity holds per record: a record is either fully logged or not
// logged at all. A payload is a record variant walked by util/codec.h: its
// kind byte, then the record's field list. The walk reads every count prefix
// through Decoder::get_count, so a checksum-valid record with a forged count
// is rejected before it can allocate.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "storage/backend.h"

namespace rfid::storage {

/// Bytes in front of every payload: u32 length, u64 checksum.
inline constexpr std::size_t kRecordFrameHeader = 4 + 8;

/// Frames one record payload: [u32 len][u64 fnv1a64(payload)][payload].
[[nodiscard]] std::string frame_record(std::span<const std::byte> payload);

/// The payload of the frame starting at `pos`, or nullopt when the bytes
/// from `pos` hold no complete frame or its checksum does not match.
[[nodiscard]] std::optional<std::span<const std::byte>> frame_at(
    std::string_view bytes, std::size_t pos);

/// Scans a log that must begin with `magic` into a journal's scan struct
/// (records, header_valid, valid_bytes, dropped_bytes), appending
/// `decode(payload)` per record and stopping at the first short frame,
/// checksum mismatch or payload `decode` rejects with
/// std::invalid_argument. Never throws on damaged input.
template <class Scan, class Decode>
[[nodiscard]] Scan scan_record_log(std::string_view bytes,
                                   std::string_view magic, Decode decode) {
  Scan scan;
  std::size_t pos = 0;
  if (bytes.starts_with(magic)) {
    scan.header_valid = true;
    pos = magic.size();
    while (const auto payload = frame_at(bytes, pos)) {
      try {
        scan.records.push_back(decode(*payload));
      } catch (const std::invalid_argument&) {
        break;  // garbage that checksums clean, or a forged field
      }
      pos += kRecordFrameHeader + payload->size();
    }
  }
  scan.valid_bytes = pos;
  scan.dropped_bytes = bytes.size() - pos;
  return scan;
}

/// Replaces the contents of `name` with `bytes`, staged under `tmp`: removes
/// a stale `tmp`, appends, flushes, then renames `tmp` onto `name`. Backend
/// failures propagate; `name` holds its old or its complete new contents at
/// every point.
void replace_atomically(StorageBackend& backend, const std::string& name,
                        const std::string& tmp, std::string_view bytes);

}  // namespace rfid::storage
