// Durable fleet-run journal: which zones a fleet orchestrator finished.
//
// A fleet run executes dozens of zone sessions; a crashed orchestrator that
// restarts from scratch re-pays every completed zone's simulated air time.
// Because every zone's result is a pure function of (fleet seed, inventory,
// zone) — the orchestrator's determinism contract — a journaled terminal
// zone record can simply be *reused* on restart: the orchestrator skips the
// zone and folds the recorded outcome into the aggregate verdict.
//
// On disk: the "RFIDMON-FLEET 2\n" magic line, then one record-log frame per
// record (storage/record_log.h owns the frame, the truncate-at-first-tear
// scan and the atomic rewrite begin() uses). A record's payload is its kind
// byte — FleetJournalRecord's alternative index + 1: start 1, zone 2, end 3
// — then its field list below, walked by util/codec.h. Record stream shape:
//
//   FleetRunStartRecord(seed, fleet)        one per run, written at start
//   FleetZoneRecord ...                     one per zone reaching a terminal
//                                           state (any order — workers race)
//   FleetRunEndRecord(verdict)              written after aggregation
//
// Recovery looks at the records after the LAST start record: if no end
// record follows, the run was interrupted and its zone records are
// reusable — but only when seed and fleet name match the restarted run
// (recover_interrupted_run_checked enforces this).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "storage/backend.h"

namespace rfid::storage {

/// Format 2 added the fused-reader fields to FleetZoneRecord. The decoder
/// rejects any payload with trailing bytes, so the version lives in the
/// magic: a journal written by an older build fails the header check and
/// every zone simply re-executes (the safe direction).
inline constexpr std::string_view kFleetJournalMagic = "RFIDMON-FLEET 2\n";

struct FleetRunStartRecord {
  std::uint64_t seed = 0;
  std::string fleet;
  /// Fingerprint of the submitted plan (inventory names, zone counts,
  /// per-zone tolerances and sizes). 0 = unknown (hand-built journals,
  /// pre-fingerprint records): recovery then skips the config check.
  std::uint64_t config_hash = 0;

  static auto fields(auto& m) { return std::tie(m.seed, m.fleet, m.config_hash); }
};

/// A zone that reached a terminal state (verified, violated, or failed for
/// good after capped retries). Everything aggregation needs; link-level
/// counters that only feed operator curiosity (burst drops, duplicates) are
/// deliberately not journaled.
struct FleetZoneRecord {
  std::string inventory;            // inventory name (stable across restarts)
  std::uint64_t zone = 0;           // zone index within the inventory
  std::uint8_t status = 0;          // fleet::ZoneStatus raw value
  std::uint32_t attempts = 0;
  std::uint8_t last_failure = 0;    // wire::FailureReason raw value
  bool resynced = false;            // UTRP mirror re-audited before a retry
  std::uint64_t rounds_completed = 0;
  std::uint64_t intact_rounds = 0;
  std::uint64_t mismatched_rounds = 0;
  std::uint64_t deadline_missed_rounds = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t retransmissions = 0;
  double duration_us = 0.0;         // simulated time of the final attempt
  // Fused zones (k > 1); defaults describe a single-reader zone.
  std::uint32_t readers = 1;            // reader count k
  std::uint64_t degraded_rounds = 0;    // rounds committed below quorum
  std::uint32_t suspected_readers = 0;  // flagged by the trust tracker

  static auto fields(auto& m) {
    return std::tie(m.inventory, m.zone, m.status, m.attempts, m.last_failure,
                    m.resynced, m.rounds_completed, m.intact_rounds,
                    m.mismatched_rounds, m.deadline_missed_rounds, m.frames_sent,
                    m.retransmissions, m.duration_us, m.readers,
                    m.degraded_rounds, m.suspected_readers);
  }
};

struct FleetRunEndRecord {
  std::uint8_t verdict = 0;  // fleet::GlobalVerdict raw value

  static auto fields(auto& m) { return std::tie(m.verdict); }
};

using FleetJournalRecord =
    std::variant<FleetRunStartRecord, FleetZoneRecord, FleetRunEndRecord>;

/// Frames one record (length prefix + checksum + payload).
[[nodiscard]] std::string encode_fleet_record(const FleetJournalRecord& record);

struct FleetJournalScan {
  std::vector<FleetJournalRecord> records;
  bool header_valid = false;
  std::uint64_t valid_bytes = 0;
  std::uint64_t dropped_bytes = 0;
};

/// Truncate-at-first-tear scan; never throws on damaged input.
[[nodiscard]] FleetJournalScan scan_fleet_journal(std::string_view bytes);

/// Zone records of an interrupted run (a start record with no end record),
/// keyed by (inventory name, zone); later records win. Empty when the
/// journal is clean, finished, or belongs to a different (seed, fleet).
///
/// Config-checked recovery: an interrupted run whose recorded config_hash
/// no longer matches the restarted plan must NOT be folded in — its zone
/// records describe zones that may no longer exist (different zone count)
/// or carry different tolerances, so reusing them would silently break the
/// pigeonhole argument. Such a run is surfaced as stale instead: the caller
/// records a quarantined-run alert and re-executes every zone.
struct FleetRecovery {
  std::map<std::pair<std::string, std::uint64_t>, FleetZoneRecord> zones;
  /// An interrupted run for this (seed, fleet) exists but its config_hash
  /// conflicts with `config_hash`; zones is empty in that case.
  bool stale = false;
  std::uint64_t stale_records = 0;  // zone records quarantined, not folded
};
[[nodiscard]] FleetRecovery recover_interrupted_run_checked(
    const FleetJournalScan& scan, std::uint64_t seed, std::string_view fleet,
    std::uint64_t config_hash);

/// Thread-safe appender: workers race to journal terminal zones, so every
/// append serializes under a mutex and flushes before returning (a record
/// is reusable iff it is durable). Append failures are swallowed and
/// counted — a sick journal disk must not take the fleet run down with it.
class FleetJournal {
 public:
  FleetJournal(StorageBackend& backend, std::string name)
      : backend_(backend), name_(std::move(name)) {}

  /// Scans whatever the backend holds under this name (missing file = empty
  /// scan). Call before begin() to harvest an interrupted run.
  [[nodiscard]] FleetJournalScan load() const;

  /// Starts a fresh journal: writes the header, the start record, and the
  /// `carried` zone records (results recovered from the interrupted run) to
  /// a temporary name, then atomically renames it over the old journal.
  /// Either the old journal or the complete new one is readable at every
  /// point, so a second crash still sees the carried records.
  void begin(const FleetRunStartRecord& start,
             const std::vector<FleetZoneRecord>& carried);

  void append(const FleetJournalRecord& record);

  /// Appends the journal failed to make durable (IoError swallowed).
  [[nodiscard]] std::uint64_t append_failures() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return append_failures_;
  }

 private:
  StorageBackend& backend_;
  std::string name_;
  mutable std::mutex mu_;
  std::uint64_t append_failures_ = 0;
};

}  // namespace rfid::storage
