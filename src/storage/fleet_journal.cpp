#include "storage/fleet_journal.h"

#include <utility>

#include "storage/record_log.h"
#include "util/codec.h"

namespace rfid::storage {

std::string encode_fleet_record(const FleetJournalRecord& record) {
  return frame_record(util::encode(record));
}

FleetJournalScan scan_fleet_journal(std::string_view bytes) {
  return scan_record_log<FleetJournalScan>(bytes, kFleetJournalMagic,
                                           util::decode<FleetJournalRecord>);
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
