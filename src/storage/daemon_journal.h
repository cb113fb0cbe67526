// Durable daemon journal: the continuous-monitoring loop's checkpoint log.
//
// The fleet journal (fleet_journal.h) makes one *run* resumable; this one
// makes the *daemon driving runs forever* resumable. Per completed epoch
// the daemon appends exactly ONE checkpoint record carrying everything a
// restarted daemon needs to continue without losing or double-counting
// state:
//
//   * the epoch counter and that epoch's verdict;
//   * the next alert sequence number (alert numbering survives restarts);
//   * every zone's health-state-machine fields (miss streaks, quarantine);
//   * the alerts raised during that epoch, inline.
//
// Alerts live INSIDE the checkpoint on purpose: a separate alert record
// would open a crash window between "alert durable" and "epoch durable" in
// which a restarted daemon re-runs the epoch and raises the alert again.
// One atomic record means an epoch either happened (alerts and health
// together) or it did not — the bit-identity the torture sweep pins down.
//
// On disk: the "RFIDMON-DAEMON 3\n" magic line, then one record-log frame
// per record (storage/record_log.h owns the frame, the truncate-at-first-
// tear scan and the atomic rewrite that fresh starts and rotations use). A
// record's payload is its kind byte — DaemonJournalRecord's alternative
// index + 1: start 1, checkpoint 2, snapshot 3 — then its field list below,
// walked by util/codec.h.
// Replay folds every checkpoint after the last matching start record;
// a torn tail is compacted away on open() so later appends never extend
// garbage into an unreadable journal.
//
// Rotation. A checkpoint-per-epoch journal grows without bound, and replay
// cost grows with it — a daemon alive for 10k epochs pays 10k record parses
// on every restart. With rotate_after > 0 the journal folds itself every N
// checkpoints: the whole record stream is atomically rewritten as
// [magic][start][snapshot], where the snapshot record carries the SAME
// folded state replay would have produced (verdicts, full alert history,
// latest zone healths, next alert sequence). Resume cost is then O(1) in
// the daemon's lifetime — one snapshot plus at most N checkpoint parses —
// and replay is bit-identical with or without rotation (the torture sweep
// crosses crash points with rotation points to pin this down).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "storage/backend.h"
#include "tag/tag_id.h"

namespace rfid::storage {

/// Format 2 added snapshot records and the per-reader health sub-records.
/// Format 3 added the named missing-tag list to alert records (the fleet's
/// identification drill-down). Decoders reject trailing payload bytes, so
/// the version lives in the magic. Format 2 journals are still READ (their
/// records have field lists of their own, without the missing list, and are
/// upgraded to these records on read); anything older fails the
/// header check and the daemon begins fresh (the safe direction —
/// monitoring restarts at epoch 0, loudly). Writers always produce format
/// 3, so a resumable format-2 journal is rotated on open(): mixing v3
/// frames under a v2 magic would corrupt every later scan.
inline constexpr std::string_view kDaemonJournalMagic = "RFIDMON-DAEMON 3\n";
inline constexpr std::string_view kDaemonJournalMagicV2 = "RFIDMON-DAEMON 2\n";

struct DaemonStartRecord {
  std::uint64_t seed = 0;
  std::string daemon;
  /// Fingerprint of the daemon's monitoring configuration (same 0=unknown
  /// sentinel convention as FleetRunStartRecord::config_hash).
  std::uint64_t config_hash = 0;

  static auto fields(auto& m) { return std::tie(m.seed, m.daemon, m.config_hash); }
};

/// One reader's health-state-machine snapshot inside a fused zone
/// (implicit index: position in DaemonZoneHealthRecord::readers).
struct DaemonReaderHealthRecord {
  std::uint32_t bad_streak = 0;  // consecutive epochs suspect or incomplete
  bool quarantined = false;      // excluded from scans until parole
  std::uint64_t quarantined_at = 0;  // epoch the quarantine began

  static auto fields(auto& m) {
    return std::tie(m.bad_streak, m.quarantined, m.quarantined_at);
  }
};

/// One zone's health-state-machine snapshot (implicit index: position in
/// DaemonCheckpointRecord::zones).
struct DaemonZoneHealthRecord {
  std::uint32_t miss_streak = 0;    // consecutive epochs failed/violated
  std::uint32_t intact_streak = 0;  // consecutive intact epochs (cooldown)
  bool violated = false;            // theft evidence seen (latched)
  bool quarantined = false;
  std::uint64_t quarantined_at = 0; // epoch the quarantine began
  /// Fused (k > 1) zones: the per-reader quarantine tier; empty otherwise.
  std::vector<DaemonReaderHealthRecord> readers;

  static auto fields(auto& m) {
    return std::tie(m.miss_streak, m.intact_streak, m.violated, m.quarantined,
                    m.quarantined_at, m.readers);
  }
};

/// One alert, exactly as the daemon raised it. Sequence numbers are
/// strictly monotonic across the daemon's whole life, restarts included.
struct DaemonAlertRecord {
  std::uint64_t sequence = 0;
  std::uint8_t kind = 0;    // daemon::DaemonAlertKind raw value
  std::uint64_t epoch = 0;
  std::uint64_t zone = 0;
  std::string detail;
  /// Stolen tags named by the identification drill-down (format 3+; empty
  /// when the drill-down was off or the record predates it).
  std::vector<tag::TagId> missing;

  static auto fields(auto& m) {
    return std::tie(m.sequence, m.kind, m.epoch, m.zone, m.detail, m.missing);
  }
};

struct DaemonCheckpointRecord {
  std::uint64_t epoch = 0;               // 0-based epoch just completed
  std::uint8_t verdict = 0;              // daemon::EpochVerdict raw value
  std::uint64_t next_alert_sequence = 0; // first sequence a later epoch uses
  std::vector<DaemonZoneHealthRecord> zones;
  std::vector<DaemonAlertRecord> alerts; // raised by THIS epoch only

  static auto fields(auto& m) {
    return std::tie(m.epoch, m.verdict, m.next_alert_sequence, m.zones,
                    m.alerts);
  }
};

/// The folded image of every checkpoint up to (and including) some epoch —
/// exactly what replaying them would produce. Written during rotation so
/// the rewritten journal resumes to the same state as the full record
/// stream it replaced.
struct DaemonSnapshotRecord {
  std::vector<std::uint8_t> verdicts;  // one per committed epoch, in order
  std::vector<DaemonZoneHealthRecord> zones;  // latest health machines
  std::vector<DaemonAlertRecord> alerts;      // FULL history, sequence order
  std::uint64_t next_alert_sequence = 0;

  /// The sequence number travels first.
  static auto fields(auto& m) {
    return std::tie(m.next_alert_sequence, m.verdicts, m.zones, m.alerts);
  }
};

using DaemonJournalRecord =
    std::variant<DaemonStartRecord, DaemonCheckpointRecord,
                 DaemonSnapshotRecord>;

[[nodiscard]] std::string encode_daemon_record(
    const DaemonJournalRecord& record);

struct DaemonJournalScan {
  std::vector<DaemonJournalRecord> records;
  bool header_valid = false;
  /// Format the magic declared (3 current, 2 legacy read-only, 0 invalid).
  std::uint32_t version = 0;
  std::uint64_t valid_bytes = 0;
  std::uint64_t dropped_bytes = 0;
};

/// Truncate-at-first-tear scan; never throws on damaged input.
[[nodiscard]] DaemonJournalScan scan_daemon_journal(std::string_view bytes);

/// What open() found. The image it rebuilt is the journal's state(), folded
/// over the snapshot (if the journal rotated) and every checkpoint after
/// it, so resume cost does not grow with the daemon's lifetime.
struct DaemonReplay {
  /// No usable prior state: missing journal, unreadable journal, or a start
  /// record for a different (seed, daemon). state() is empty.
  bool fresh = true;
  /// A prior journal for this (seed, daemon) exists but its config_hash
  /// conflicts: its checkpoints were quarantined (not replayed) and the
  /// journal was begun fresh. The caller should raise an alert.
  bool stale = false;
  std::uint64_t stale_checkpoints = 0;
  /// Torn/rotted tail bytes dropped (and compacted away) during open().
  std::uint64_t compacted_bytes = 0;
};

/// Single-writer appender: open() and checkpoint() run on one thread at a
/// time (the daemon opens it on its supervisor thread, and each monitor
/// life checkpoints on its own thread, joined before the next open).
/// Append failures are swallowed and counted — a sick journal disk must not
/// take continuous monitoring down — but a scripted CrashInjected
/// propagates: it is the process dying, not the disk failing.
class DaemonJournal {
 public:
  /// rotate_after > 0 folds the journal into [start][snapshot] every that
  /// many checkpoints (and on torn-tail compaction); 0 never rotates.
  DaemonJournal(StorageBackend& backend, std::string name,
                std::uint64_t rotate_after = 0)
      : backend_(backend),
        name_(std::move(name)),
        rotate_after_(rotate_after) {}

  /// Loads and replays the journal. A matching interrupted daemon resumes
  /// (state() is the folded image, torn tail compacted away); anything else
  /// — missing, foreign, or config-stale — atomically begins a fresh journal
  /// holding only the new start record, and state() is empty. A crash in
  /// either rewrite leaves state() at what the backend replays to (each
  /// rewrite is atomic).
  [[nodiscard]] DaemonReplay open(const DaemonStartRecord& start);

  /// Appends one epoch checkpoint, flushes it durable and folds it into
  /// state() (even when the append failed: state() is what the daemon
  /// believes, and a later successful rotation repairs the journal to it);
  /// rotates when the checkpoint-since-snapshot budget is spent.
  void checkpoint(DaemonCheckpointRecord record);

  /// The folded image of every checkpoint since the matching start record:
  /// what the daemon decides, resumes and reports from. open() replaces it
  /// and checkpoint() extends it, so only their thread may read it.
  [[nodiscard]] const DaemonSnapshotRecord& state() const noexcept {
    return folded_;
  }

  [[nodiscard]] std::uint64_t append_failures() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return append_failures_;
  }

  /// Snapshot rewrites performed (rotation budget spent or tail compacted).
  [[nodiscard]] std::uint64_t rotations() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return rotations_;
  }

 private:
  void begin_fresh_locked(const DaemonStartRecord& start);
  void rotate_locked();
  /// Atomic rewrite of the journal; false (IoError counted) on failure.
  bool replace_locked(std::string_view bytes);

  StorageBackend& backend_;
  std::string name_;
  std::uint64_t rotate_after_ = 0;
  mutable std::mutex mu_;
  std::uint64_t append_failures_ = 0;
  std::uint64_t rotations_ = 0;

  // The folded image (state()), maintained through open() and every
  // checkpoint() so rotation can rewrite the journal without re-reading the
  // backend.
  DaemonStartRecord start_;
  DaemonSnapshotRecord folded_;
  std::uint64_t checkpoints_since_snapshot_ = 0;
};

}  // namespace rfid::storage
