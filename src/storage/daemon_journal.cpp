#include "storage/daemon_journal.h"

#include <span>
#include <stdexcept>
#include <utility>

#include "storage/record_log.h"
#include "util/codec.h"

namespace rfid::storage {

namespace {

using util::Decoder;
using util::Encoder;

enum class RecordKind : std::uint8_t {
  kStart = 1,
  kCheckpoint = 2,
  kSnapshot = 3,
};

// Minimum encoded sizes, for bounding count prefixes before reserving.
constexpr std::size_t kZoneHealthBytes = 4 + 4 + 1 + 1 + 8 + 4;
constexpr std::size_t kReaderHealthBytes = 4 + 1 + 8;
constexpr std::size_t kAlertBytes = 8 + 1 + 8 + 8 + 4;  // format 2
constexpr std::size_t kTagIdBytes = 4 + 8;

void write_zone_health(Encoder& w, const DaemonZoneHealthRecord& zone) {
  w.put_u32(zone.miss_streak);
  w.put_u32(zone.intact_streak);
  w.put_bool(zone.violated);
  w.put_bool(zone.quarantined);
  w.put_u64(zone.quarantined_at);
  w.put_u32(static_cast<std::uint32_t>(zone.readers.size()));
  for (const DaemonReaderHealthRecord& reader : zone.readers) {
    w.put_u32(reader.bad_streak);
    w.put_bool(reader.quarantined);
    w.put_u64(reader.quarantined_at);
  }
}

void write_alert(Encoder& w, const DaemonAlertRecord& alert) {
  w.put_u64(alert.sequence);
  w.put_u8(alert.kind);
  w.put_u64(alert.epoch);
  w.put_u64(alert.zone);
  w.put_string(alert.detail);
  w.put_u32(static_cast<std::uint32_t>(alert.missing.size()));
  for (const tag::TagId& id : alert.missing) {
    w.put_u32(id.hi());
    w.put_u64(id.lo());
  }
}

// Checkpoints and snapshots both end in [zones][alerts].
void write_zones_and_alerts(Encoder& w,
                            const std::vector<DaemonZoneHealthRecord>& zones,
                            const std::vector<DaemonAlertRecord>& alerts) {
  w.put_u32(static_cast<std::uint32_t>(zones.size()));
  for (const DaemonZoneHealthRecord& zone : zones) write_zone_health(w, zone);
  w.put_u32(static_cast<std::uint32_t>(alerts.size()));
  for (const DaemonAlertRecord& alert : alerts) write_alert(w, alert);
}

[[nodiscard]] std::vector<std::byte> encode_payload(
    const DaemonJournalRecord& record) {
  Encoder w;
  std::visit(
      [&w](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DaemonStartRecord>) {
          w.put_u8(static_cast<std::uint8_t>(RecordKind::kStart));
          w.put_u64(r.seed);
          w.put_string(r.daemon);
          w.put_u64(r.config_hash);
        } else if constexpr (std::is_same_v<T, DaemonCheckpointRecord>) {
          w.put_u8(static_cast<std::uint8_t>(RecordKind::kCheckpoint));
          w.put_u64(r.epoch);
          w.put_u8(r.verdict);
          w.put_u64(r.next_alert_sequence);
          write_zones_and_alerts(w, r.zones, r.alerts);
        } else {
          w.put_u8(static_cast<std::uint8_t>(RecordKind::kSnapshot));
          w.put_u64(r.next_alert_sequence);
          w.put_u32(static_cast<std::uint32_t>(r.verdicts.size()));
          for (const std::uint8_t verdict : r.verdicts) w.put_u8(verdict);
          write_zones_and_alerts(w, r.zones, r.alerts);
        }
      },
      record);
  return std::move(w).take();
}

[[nodiscard]] DaemonZoneHealthRecord read_zone_health(Decoder& r) {
  DaemonZoneHealthRecord zone;
  zone.miss_streak = r.get_u32();
  zone.intact_streak = r.get_u32();
  zone.violated = r.get_bool();
  zone.quarantined = r.get_bool();
  zone.quarantined_at = r.get_u64();
  const std::size_t readers = r.get_count(kReaderHealthBytes);
  zone.readers.reserve(readers);
  for (std::size_t i = 0; i < readers; ++i) {
    DaemonReaderHealthRecord reader;
    reader.bad_streak = r.get_u32();
    reader.quarantined = r.get_bool();
    reader.quarantined_at = r.get_u64();
    zone.readers.push_back(reader);
  }
  return zone;
}

[[nodiscard]] DaemonAlertRecord read_alert(Decoder& r,
                                           std::uint32_t version) {
  DaemonAlertRecord alert;
  alert.sequence = r.get_u64();
  alert.kind = r.get_u8();
  alert.epoch = r.get_u64();
  alert.zone = r.get_u64();
  alert.detail = r.get_string();
  if (version >= 3) {
    const std::size_t missing = r.get_count(kTagIdBytes);
    alert.missing.reserve(missing);
    for (std::size_t i = 0; i < missing; ++i) {
      const std::uint32_t hi = r.get_u32();
      const std::uint64_t lo = r.get_u64();
      alert.missing.emplace_back(hi, lo);
    }
  }
  return alert;
}

void read_zones_and_alerts(Decoder& r, std::uint32_t version,
                           std::vector<DaemonZoneHealthRecord>& zones,
                           std::vector<DaemonAlertRecord>& alerts) {
  const std::size_t zone_count = r.get_count(kZoneHealthBytes);
  zones.reserve(zone_count);
  for (std::size_t i = 0; i < zone_count; ++i) {
    zones.push_back(read_zone_health(r));
  }
  const std::size_t alert_count = r.get_count(kAlertBytes);
  alerts.reserve(alert_count);
  for (std::size_t i = 0; i < alert_count; ++i) {
    alerts.push_back(read_alert(r, version));
  }
}

[[nodiscard]] DaemonJournalRecord decode_payload(
    std::span<const std::byte> payload, std::uint32_t version) {
  Decoder r(payload);
  const auto kind = static_cast<RecordKind>(r.get_u8());
  DaemonJournalRecord out;
  switch (kind) {
    case RecordKind::kStart: {
      DaemonStartRecord rec;
      rec.seed = r.get_u64();
      rec.daemon = r.get_string();
      rec.config_hash = r.get_u64();
      out = std::move(rec);
      break;
    }
    case RecordKind::kCheckpoint: {
      DaemonCheckpointRecord rec;
      rec.epoch = r.get_u64();
      rec.verdict = r.get_u8();
      rec.next_alert_sequence = r.get_u64();
      read_zones_and_alerts(r, version, rec.zones, rec.alerts);
      out = std::move(rec);
      break;
    }
    case RecordKind::kSnapshot: {
      DaemonSnapshotRecord rec;
      rec.next_alert_sequence = r.get_u64();
      const std::size_t verdicts = r.get_count(1);
      rec.verdicts.reserve(verdicts);
      for (std::size_t i = 0; i < verdicts; ++i) {
        rec.verdicts.push_back(r.get_u8());
      }
      read_zones_and_alerts(r, version, rec.zones, rec.alerts);
      out = std::move(rec);
      break;
    }
    default:
      throw std::invalid_argument("unknown daemon journal record kind");
  }
  r.expect_exhausted();
  return out;
}

// Extends the folded image by one checkpoint: the reduction both replay and
// the live journal perform.
void fold(DaemonSnapshotRecord& folded, DaemonCheckpointRecord checkpoint) {
  folded.verdicts.push_back(checkpoint.verdict);
  folded.zones = std::move(checkpoint.zones);
  folded.next_alert_sequence = checkpoint.next_alert_sequence;
  for (DaemonAlertRecord& alert : checkpoint.alerts) {
    folded.alerts.push_back(std::move(alert));
  }
}

}  // namespace

std::string encode_daemon_record(const DaemonJournalRecord& record) {
  return frame_record(encode_payload(record));
}

DaemonJournalScan scan_daemon_journal(std::string_view bytes) {
  const bool v2 = bytes.starts_with(kDaemonJournalMagicV2);
  const std::uint32_t version = v2 ? 2 : 3;
  auto scan = scan_record_log<DaemonJournalScan>(
      bytes, v2 ? kDaemonJournalMagicV2 : kDaemonJournalMagic,
      [version](std::span<const std::byte> payload) {
        return decode_payload(payload, version);
      });
  scan.version = scan.header_valid ? version : 0;
  return scan;
}

DaemonReplay DaemonJournal::open(const DaemonStartRecord& start) {
  const std::lock_guard<std::mutex> lock(mu_);
  DaemonReplay replay;
  start_ = start;
  folded_ = {};
  checkpoints_since_snapshot_ = 0;

  DaemonJournalScan scan;
  if (backend_.exists(name_)) {
    try {
      scan = scan_daemon_journal(backend_.read(name_));
    } catch (const IoError&) {
      scan = {};
    }
  }

  // Only the suffix after the LAST start record describes a resumable
  // daemon (an earlier daemon under the same name left the prefix).
  std::size_t start_index = scan.records.size();
  for (std::size_t i = scan.records.size(); i-- > 0;) {
    if (std::holds_alternative<DaemonStartRecord>(scan.records[i])) {
      start_index = i;
      break;
    }
  }

  // Fold the suffix: a snapshot (rotation's output) resets the folded
  // state wholesale, each checkpoint extends it — the same reduction the
  // daemon itself would perform, done once here.
  DaemonSnapshotRecord folded;
  std::uint64_t tail_checkpoints = 0;
  bool resumable = false;
  if (start_index < scan.records.size()) {
    const auto& begun = std::get<DaemonStartRecord>(scan.records[start_index]);
    if (begun.seed == start.seed && begun.daemon == start.daemon) {
      for (std::size_t i = start_index + 1; i < scan.records.size(); ++i) {
        if (auto* snapshot =
                std::get_if<DaemonSnapshotRecord>(&scan.records[i])) {
          folded = std::move(*snapshot);
          tail_checkpoints = 0;
          continue;
        }
        fold(folded,
             std::move(std::get<DaemonCheckpointRecord>(scan.records[i])));
        ++tail_checkpoints;
      }
      if (start.config_hash != 0 && begun.config_hash != 0 &&
          begun.config_hash != start.config_hash) {
        // Same daemon, different monitoring plan: its health machines and
        // epoch numbering describe zones that may no longer exist.
        replay.stale = true;
        replay.stale_checkpoints = folded.verdicts.size();
      } else {
        resumable = true;
      }
    }
  }

  if (!resumable) {
    begin_fresh_locked(start);
    return replay;
  }

  replay.fresh = false;
  folded_ = std::move(folded);
  checkpoints_since_snapshot_ = tail_checkpoints;
  replay.verdicts = folded_.verdicts;
  replay.zones = folded_.zones;
  replay.alerts = folded_.alerts;
  replay.next_alert_sequence = folded_.next_alert_sequence;

  if (scan.dropped_bytes > 0 || scan.version < 3) {
    // A torn tail must not stay: appending after it would bury every later
    // checkpoint behind unreadable bytes. Likewise a legacy-format journal:
    // checkpoint() appends current-format frames, which a later scan would
    // mis-decode under the old magic. Compact — rotation's rewrite is
    // exactly the right tool: the journal becomes [start][snapshot] in the
    // current format holding precisely the state replay just accepted.
    replay.compacted_bytes = scan.dropped_bytes;
    rotate_locked();
  }
  return replay;
}

void DaemonJournal::begin_fresh_locked(const DaemonStartRecord& start) {
  (void)replace_locked(std::string(kDaemonJournalMagic) +
                       encode_daemon_record(start));
}

void DaemonJournal::rotate_locked() {
  // Atomically rewrite the journal as [magic][start][snapshot]. The old
  // journal stays readable until the new one is durable, so a crash at any
  // point of the rotation resumes to the same state (the torture sweep
  // crosses crash points with rotation points).
  if (replace_locked(std::string(kDaemonJournalMagic) +
                     encode_daemon_record(start_) +
                     encode_daemon_record(folded_))) {
    checkpoints_since_snapshot_ = 0;
    ++rotations_;
  }
}

bool DaemonJournal::replace_locked(std::string_view bytes) {
  try {
    replace_atomically(backend_, name_, name_ + ".tmp", bytes);
    return true;
  } catch (const IoError&) {
    ++append_failures_;
    return false;
  }
}

void DaemonJournal::checkpoint(const DaemonCheckpointRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  try {
    backend_.append(name_, encode_daemon_record(record));
    backend_.flush(name_);
  } catch (const IoError&) {
    ++append_failures_;
  }
  // Fold BEFORE deciding to rotate: the snapshot must cover this epoch.
  // Folding happens even when the append failed — the folded image mirrors
  // what the daemon believes, and a later successful rotation repairs the
  // journal to match it.
  fold(folded_, record);
  ++checkpoints_since_snapshot_;
  if (rotate_after_ > 0 && checkpoints_since_snapshot_ >= rotate_after_) {
    rotate_locked();
  }
}

}  // namespace rfid::storage
