#include "storage/daemon_journal.h"

#include <span>
#include <tuple>
#include <type_traits>
#include <utility>

#include "storage/record_log.h"
#include "util/codec.h"

namespace rfid::storage {

namespace {

// Format 2, read only: the records as they were before alerts named their
// missing tags. Each wraps the current record it upgrades to.
struct AlertV2 {
  DaemonAlertRecord alert;

  static auto fields(auto& m) {
    auto& a = m.alert;
    return std::tie(a.sequence, a.kind, a.epoch, a.zone, a.detail);
  }
};
static_assert(util::min_size<AlertV2>() == 29, "a format-2 alert's count bound");

struct CheckpointV2 {
  DaemonCheckpointRecord record;
  std::vector<AlertV2> alerts;

  static auto fields(auto& m) {
    auto& r = m.record;
    return std::tie(r.epoch, r.verdict, r.next_alert_sequence, r.zones,
                    m.alerts);
  }
};

struct SnapshotV2 {
  DaemonSnapshotRecord record;
  std::vector<AlertV2> alerts;

  static auto fields(auto& m) {
    auto& r = m.record;
    return std::tie(r.next_alert_sequence, r.verdicts, r.zones, m.alerts);
  }
};

using DaemonJournalRecordV2 =
    std::variant<DaemonStartRecord, CheckpointV2, SnapshotV2>;

[[nodiscard]] DaemonJournalRecord decode_v2(std::span<const std::byte> payload) {
  return std::visit(
      [](auto v2) -> DaemonJournalRecord {
        if constexpr (std::is_same_v<decltype(v2), DaemonStartRecord>) {
          return v2;
        } else {
          for (AlertV2& a : v2.alerts) {
            v2.record.alerts.push_back(std::move(a.alert));
          }
          return std::move(v2.record);
        }
      },
      util::decode<DaemonJournalRecordV2>(payload));
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
  return frame_record(util::encode(record));
}

DaemonJournalScan scan_daemon_journal(std::string_view bytes) {
  if (bytes.starts_with(kDaemonJournalMagicV2)) {
    auto scan = scan_record_log<DaemonJournalScan>(bytes, kDaemonJournalMagicV2,
                                                   decode_v2);
    scan.version = 2;
    return scan;
  }
  auto scan = scan_record_log<DaemonJournalScan>(
      bytes, kDaemonJournalMagic, util::decode<DaemonJournalRecord>);
  scan.version = scan.header_valid ? 3 : 0;
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
  // state wholesale, each checkpoint extends it — the same reduction
  // checkpoint() performs live, done once here.
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

void DaemonJournal::checkpoint(DaemonCheckpointRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  try {
    backend_.append(name_, encode_daemon_record(record));
    backend_.flush(name_);
  } catch (const IoError&) {
    ++append_failures_;
  }
  // Fold BEFORE deciding to rotate: the snapshot must cover this epoch.
  // Folding happens even when the append failed — the folded image is what
  // the daemon believes, and a later successful rotation repairs the
  // journal to match it.
  fold(folded_, std::move(record));
  ++checkpoints_since_snapshot_;
  if (rotate_after_ > 0 && checkpoints_since_snapshot_ >= rotate_after_) {
    rotate_locked();
  }
}

}  // namespace rfid::storage
