#include "storage/fleet_journal.h"

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
  kRunStart = 1,
  kZone = 2,
  kRunEnd = 3,
};

[[nodiscard]] std::vector<std::byte> encode_payload(
    const FleetJournalRecord& record) {
  Encoder w;
  std::visit(
      [&w](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, FleetRunStartRecord>) {
          w.put_u8(static_cast<std::uint8_t>(RecordKind::kRunStart));
          w.put_u64(r.seed);
          w.put_string(r.fleet);
          w.put_u64(r.config_hash);
        } else if constexpr (std::is_same_v<T, FleetZoneRecord>) {
          w.put_u8(static_cast<std::uint8_t>(RecordKind::kZone));
          w.put_string(r.inventory);
          w.put_u64(r.zone);
          w.put_u8(r.status);
          w.put_u32(r.attempts);
          w.put_u8(r.last_failure);
          w.put_bool(r.resynced);
          w.put_u64(r.rounds_completed);
          w.put_u64(r.intact_rounds);
          w.put_u64(r.mismatched_rounds);
          w.put_u64(r.deadline_missed_rounds);
          w.put_u64(r.frames_sent);
          w.put_u64(r.retransmissions);
          w.put_f64(r.duration_us);
          w.put_u32(r.readers);
          w.put_u64(r.degraded_rounds);
          w.put_u32(r.suspected_readers);
        } else {
          w.put_u8(static_cast<std::uint8_t>(RecordKind::kRunEnd));
          w.put_u8(r.verdict);
        }
      },
      record);
  return std::move(w).take();
}

[[nodiscard]] FleetJournalRecord decode_payload(
    std::span<const std::byte> payload) {
  Decoder r(payload);
  const auto kind = static_cast<RecordKind>(r.get_u8());
  FleetJournalRecord out;
  switch (kind) {
    case RecordKind::kRunStart: {
      FleetRunStartRecord rec;
      rec.seed = r.get_u64();
      rec.fleet = r.get_string();
      rec.config_hash = r.get_u64();
      out = std::move(rec);
      break;
    }
    case RecordKind::kZone: {
      FleetZoneRecord rec;
      rec.inventory = r.get_string();
      rec.zone = r.get_u64();
      rec.status = r.get_u8();
      rec.attempts = r.get_u32();
      rec.last_failure = r.get_u8();
      rec.resynced = r.get_bool();
      rec.rounds_completed = r.get_u64();
      rec.intact_rounds = r.get_u64();
      rec.mismatched_rounds = r.get_u64();
      rec.deadline_missed_rounds = r.get_u64();
      rec.frames_sent = r.get_u64();
      rec.retransmissions = r.get_u64();
      rec.duration_us = r.get_f64();
      rec.readers = r.get_u32();
      rec.degraded_rounds = r.get_u64();
      rec.suspected_readers = r.get_u32();
      out = std::move(rec);
      break;
    }
    case RecordKind::kRunEnd: {
      FleetRunEndRecord rec;
      rec.verdict = r.get_u8();
      out = rec;
      break;
    }
    default:
      throw std::invalid_argument("unknown fleet journal record kind");
  }
  r.expect_exhausted();
  return out;
}

}  // namespace

std::string encode_fleet_record(const FleetJournalRecord& record) {
  return frame_record(encode_payload(record));
}

FleetJournalScan scan_fleet_journal(std::string_view bytes) {
  return scan_record_log<FleetJournalScan>(bytes, kFleetJournalMagic,
                                           decode_payload);
}

FleetRecovery recover_interrupted_run_checked(const FleetJournalScan& scan,
                                              std::uint64_t seed,
                                              std::string_view fleet,
                                              std::uint64_t config_hash) {
  // Find the last start record; only its suffix describes the current run.
  std::size_t start = scan.records.size();
  for (std::size_t i = scan.records.size(); i-- > 0;) {
    if (std::holds_alternative<FleetRunStartRecord>(scan.records[i])) {
      start = i;
      break;
    }
  }
  FleetRecovery recovery;
  if (start == scan.records.size()) return recovery;
  const auto& begun = std::get<FleetRunStartRecord>(scan.records[start]);
  if (begun.seed != seed || begun.fleet != fleet) return recovery;
  for (std::size_t i = start + 1; i < scan.records.size(); ++i) {
    if (std::holds_alternative<FleetRunEndRecord>(scan.records[i])) {
      recovery.zones.clear();  // the run finished; nothing to resume
      return recovery;
    }
    const auto& zone = std::get<FleetZoneRecord>(scan.records[i]);
    recovery.zones.insert_or_assign({zone.inventory, zone.zone}, zone);
  }
  // A hash of 0 on either side means "unknown" (hand-built journal or a
  // caller that opted out) — folding proceeds unchecked, preserving the
  // pre-fingerprint behavior. Two known-but-different hashes mean the plan
  // changed between crash and restart: quarantine, never merge.
  if (config_hash != 0 && begun.config_hash != 0 &&
      begun.config_hash != config_hash) {
    recovery.stale = true;
    recovery.stale_records = recovery.zones.size();
    recovery.zones.clear();
  }
  return recovery;
}

FleetJournalScan FleetJournal::load() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!backend_.exists(name_)) return {};
  try {
    return scan_fleet_journal(backend_.read(name_));
  } catch (const IoError&) {
    return {};
  }
}

void FleetJournal::begin(const FleetRunStartRecord& start,
                         const std::vector<FleetZoneRecord>& carried) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Staged under a temp name and renamed over the old journal: the old
  // journal — and any carried records it holds — stays readable until the
  // new one is fully durable, so a crash anywhere in here loses nothing,
  // and a failed write can never leave a headerless file that later
  // appends would extend into an unreadable journal.
  std::string bytes(kFleetJournalMagic);
  bytes += encode_fleet_record(start);
  for (const FleetZoneRecord& zone : carried) {
    bytes += encode_fleet_record(zone);
  }
  try {
    replace_atomically(backend_, name_, name_ + ".tmp", bytes);
  } catch (const IoError&) {
    ++append_failures_;
  }
}

void FleetJournal::append(const FleetJournalRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  try {
    backend_.append(name_, encode_fleet_record(record));
    backend_.flush(name_);
  } catch (const IoError&) {
    ++append_failures_;
  }
}

}  // namespace rfid::storage
