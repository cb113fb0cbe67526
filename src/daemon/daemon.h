// MonitorDaemon: continuous monitoring as a supervised service.
//
// Everything below the daemon answers "is the inventory intact RIGHT NOW?"
// — one planned fleet run, one verdict. A warehouse asks a different
// question: "has anything gone missing SINCE WE STARTED WATCHING?", asked
// every re-scan interval, across restarts of the monitoring process, while
// tags are enrolled, retired, and stolen under it. MonitorDaemon closes
// that loop:
//
//   * Epochs. Monitoring proceeds in numbered epochs. Each epoch derives a
//     fresh fleet seed from (daemon seed, epoch), applies that epoch's tag
//     churn to the population it carries over, and executes one
//     FleetOrchestrator run over the prepared zones. Epoch results are
//     therefore pure functions of (daemon seed, warehouse script, epoch) —
//     the property every resume guarantee below leans on.
//
//   * Supervision. The epoch loop runs on a monitor thread; the caller's
//     thread is the supervisor. A scripted crash (fault::CrashInjected —
//     from the daemon fault injector or a FaultyBackend under the journal)
//     unwinds the monitor thread; a scripted hang parks it until the
//     supervisor notices the missed progress deadline and kills it
//     cooperatively. Each monitor life has one stop source: its token is
//     what the epoch-start check, the epoch's fleet run and a scripted hang
//     read, the supervisor's kill requests it, and DaemonConfig::abort is
//     relayed into it. After a kill or a crash the supervisor restarts the
//     monitor with capped exponential backoff, up to max_restarts, then
//     gives up loudly.
//
//   * Resume. Per epoch the daemon journals ONE atomic checkpoint record
//     (storage/daemon_journal.h): epoch counter, verdict, zone health
//     machines, next alert sequence, and the alerts that epoch raised. The
//     journal's folded image of those records (DaemonJournal::state()) is
//     the daemon's only copy of them: every epoch decides from it, the
//     checkpoint's fold is the commit, and run() reports from it. A
//     restarted monitor re-opens the journal and continues at the first
//     uncheckpointed epoch. Because alerts ride inside the checkpoint, a
//     crash on either side of the write yields the same alert history as
//     an uncrashed run — never a lost alert, never a duplicate
//     (tests/daemon_torture_test.cpp sweeps every crash point).
//
//   * Debounce and escalation. A zone failing one epoch is noise; failing
//     k in a row is a signal. The per-zone health machine latches theft
//     evidence immediately (kZoneViolated), escalates after
//     debounce_epochs consecutive misses (kZoneEscalated), quarantines
//     after quarantine_after_epochs (kZoneQuarantined; a quarantined
//     zone's failures degrade the epoch verdict instead of making it
//     inconclusive), and recovers a quarantined zone after
//     quarantine_cooldown_epochs consecutive intact epochs
//     (kZoneRecovered). Every transition is a typed, sequenced DaemonAlert.
//
//   * Churn. The warehouse script enrolls, decommissions, and steals tags
//     between epochs, in epoch order. Each monitor life draws the
//     population once, at its first epoch; later epochs apply their events
//     as a delta. The prepared zones (fleet::PreparedPopulation) outlive
//     epochs until an event enrolls or retires tags, which re-plans so
//     Σ m_i = M still holds and re-prepares; a theft changes only the
//     stolen list. The per-zone health machines reset when the zone count
//     changes, and a zone whose theft alert is already raised is not
//     drilled down again.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <vector>

#include "fault/daemon_fault.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "storage/backend.h"
#include "storage/daemon_journal.h"

namespace rfid::daemon {

/// One epoch's aggregated verdict. kDegraded is the daemon-only state:
/// every failure this epoch came from zones already under quarantine, so
/// the pigeonhole guarantee is weakened exactly where the operator was
/// already alerted — not silently, and not escalated again.
enum class EpochVerdict : std::uint8_t {
  kIntact = 0,
  kViolated = 1,
  kInconclusive = 2,
  kDegraded = 3,
};

enum class DaemonAlertKind : std::uint8_t {
  kZoneViolated = 0,     // theft evidence; latched, raised once per incident
  kZoneEscalated = 1,    // debounce_epochs consecutive missed epochs
  kZoneQuarantined = 2,  // quarantine_after_epochs consecutive misses
  kZoneRecovered = 3,    // quarantined zone served its intact cooldown
  kReplanned = 4,        // churn changed the zone count; health reset
  kStaleJournalQuarantined = 5,  // recovered state refused (config changed)
  /// Fused (k > 1) zones only: the per-reader quarantine tier.
  kReaderQuarantined = 6,  // reader suspect/incomplete too many epochs
  kReaderRecovered = 7,    // quarantined reader reinstated after cooldown
};

[[nodiscard]] std::string_view to_string(EpochVerdict verdict) noexcept;
[[nodiscard]] std::string_view to_string(DaemonAlertKind kind) noexcept;

/// A committed alert. Sequence numbers are strictly monotonic across the
/// daemon's entire life — replay, new epochs, and restarts included.
struct DaemonAlert {
  std::uint64_t sequence = 0;
  DaemonAlertKind kind = DaemonAlertKind::kZoneViolated;
  std::uint64_t epoch = 0;
  std::uint64_t zone = 0;  // meaningful for the kZone* kinds
  std::string detail;
  /// kZoneViolated with the identification drill-down enabled: the stolen
  /// tags the campaign named, in enrolled order. Empty otherwise.
  std::vector<tag::TagId> missing_tags;
};

/// Canonical one-line-per-alert rendering; the string two daemon lives must
/// agree on bit-for-bit for kill-resume equivalence.
[[nodiscard]] std::string render_alert_history(
    std::span<const DaemonAlert> alerts);

/// Scripted population change, applied at the start of its epoch (before
/// planning). Deterministic: a resumed daemon re-derives the same tags. A
/// script lists its events in epoch order; events of one epoch apply in
/// list order, and their enrollments draw from that epoch's one stream.
struct ChurnEvent {
  std::uint64_t epoch = 0;
  std::uint64_t enroll = 0;        // fresh tags appended to the population
  std::uint64_t decommission = 0;  // oldest tags retired (from the front)
  std::uint64_t steal = 0;         // tags marked physically absent...
  std::uint64_t steal_from = 0;    // ...starting at this population index
};

/// The monitored warehouse: population, guarantee, and per-epoch scripts.
struct WarehouseConfig {
  fleet::Protocol protocol = fleet::Protocol::kTrp;
  std::uint64_t initial_tags = 120;
  /// Global tolerance M. Re-planning clamps it so the planner's
  /// M + zones <= N invariant survives decommissioning.
  std::uint64_t tolerance = 4;
  std::uint64_t zone_capacity = 40;  // 0 = single zone
  double alpha = 0.95;
  math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox;
  std::uint64_t rounds = 2;  // monitoring rounds per zone session
  std::uint64_t comm_budget = 100;  // UTRP only
  std::uint32_t slack_slots = 8;    // UTRP only
  wire::SessionConfig session;
  std::vector<ChurnEvent> churn;
  /// Scripted zone outages: the fault plan rides on that zone's sessions
  /// during that epoch (pair with DaemonConfig::faults_on_retries to make
  /// a zone miss the whole epoch).
  struct ZoneFault {
    std::uint64_t epoch = 0;
    std::uint64_t zone = 0;
    fault::FaultPlan plan;
  };
  std::vector<ZoneFault> zone_faults;
  /// Reader redundancy per zone (fusion.readers > 1 runs k overlapping
  /// sessions with trust-weighted vote fusion; see fusion/fusion.h). The
  /// daemon adds the per-reader quarantine tier on top: a reader suspect
  /// or incomplete quarantine_after_epochs epochs in a row is excluded
  /// from subsequent scans until its cooldown passes.
  fusion::FusionConfig fusion;
  /// Persistently adversarial readers, as (zone, reader) pairs — every
  /// epoch those readers forge "all enrolled tags present". The scenario
  /// the quarantine tier exists for.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> dishonest_readers;
  /// Identification drill-down, passed through to every epoch's fleet run:
  /// when enabled, a zone verdict of violated triggers a missing-tag
  /// identification campaign and the kZoneViolated alert carries the named
  /// stolen tags (DaemonAlert::missing_tags), durably, through the
  /// checkpoint. Deliberately OUTSIDE the config fingerprint: it enriches
  /// future alerts without changing what any replayed health state means,
  /// so flipping it across a restart must not quarantine the journal. The
  /// daemon sets skip_zones itself each epoch; a value given here is
  /// ignored.
  fleet::IdentifyDrillConfig identify;
};

struct DaemonConfig {
  std::uint64_t seed = 1;
  std::string name = "monitor";
  std::uint64_t epochs = 4;  // epochs to complete before run() returns
  /// FleetConfig::threads of every epoch's run; 1 runs its zones on the
  /// monitor thread itself.
  unsigned threads = 1;
  std::uint32_t max_zone_attempts = 3;
  bool faults_on_retries = false;
  /// Health state machine thresholds (consecutive epochs).
  std::uint32_t debounce_epochs = 2;
  std::uint32_t quarantine_after_epochs = 4;
  std::uint32_t quarantine_cooldown_epochs = 1;
  /// Supervisor: progress deadline before a hung monitor is killed, and
  /// the capped exponential restart backoff.
  std::uint64_t hang_timeout_ms = 2000;
  std::uint64_t backoff_initial_ms = 1;
  std::uint64_t backoff_cap_ms = 50;
  std::uint64_t max_restarts = 8;
  /// Storage for both journals (required; not owned).
  storage::StorageBackend* backend = nullptr;
  std::string journal_name = "daemon.journal";
  std::string fleet_journal_name = "fleet.journal";
  /// Fold the daemon journal into [start][snapshot] every N checkpoints
  /// (0 = never): keeps resume O(1) in the daemon's lifetime. Pure storage
  /// layout — replay is bit-identical with or without rotation, so this
  /// knob is deliberately outside the config fingerprint.
  std::uint64_t journal_rotate_after = 0;
  /// External stop (the default token never stops). A stop request reaches
  /// the in-flight epoch at once, through the monitor life's own stop: the
  /// epoch aborts cooperatively, no restart is attempted, and run() returns
  /// early with gave_up = true — every checkpointed epoch stays durable and
  /// resumable, exactly as after a supervisor kill. The service passes its
  /// drain-budget stop here so a blown stop() budget also unwinds in-flight
  /// watches.
  std::stop_token abort{};
  /// Scripted crashes/hangs (not owned; may be null).
  fault::DaemonFaultInjector* faults = nullptr;
  /// Invoked between a caught crash and the journal replay — the torture
  /// harness's seam for MemoryBackend::crash() (drop unflushed bytes).
  std::function<void()> crash_hook;
  obs::MetricsRegistry* metrics = nullptr;  // not owned; may be null
};

enum class DaemonEventKind : std::uint8_t {
  kCrashRestart = 0,
  kHangRestart = 1,
  kGaveUp = 2,
};

[[nodiscard]] std::string_view to_string(DaemonEventKind kind) noexcept;

/// Supervision log entry. Wall-clock territory: how many restarts happen
/// and where depends on the fault script, not on thread timing — but these
/// are diagnostics, deliberately outside the deterministic alert history.
struct DaemonEvent {
  DaemonEventKind kind = DaemonEventKind::kCrashRestart;
  std::uint64_t epoch = 0;  // first uncheckpointed epoch at the time
};

struct DaemonResult {
  /// Full alert history, replayed + newly raised, sequence order.
  std::vector<DaemonAlert> alerts;
  /// Verdict of every committed epoch, epoch order (replayed included).
  std::vector<EpochVerdict> epoch_verdicts;
  std::uint64_t epochs_completed = 0;
  std::uint64_t restarts = 0;
  std::uint64_t crash_restarts = 0;
  std::uint64_t hang_restarts = 0;
  bool gave_up = false;  // max_restarts exhausted before config.epochs
  /// Alerts restored from the journal across all resumes (initial open
  /// included). Replay never re-counts them in rfidmon_daemon_alerts_total.
  std::uint64_t replayed_alerts = 0;
  double last_resume_us = 0.0;  // journal replay + state rebuild, wall clock
  std::uint64_t journal_append_failures = 0;
  std::vector<DaemonEvent> events;
};

class MonitorDaemon {
 public:
  MonitorDaemon(DaemonConfig config, WarehouseConfig warehouse);
  ~MonitorDaemon();

  MonitorDaemon(const MonitorDaemon&) = delete;
  MonitorDaemon& operator=(const MonitorDaemon&) = delete;

  /// Runs (and supervises) the epoch loop until config.epochs epochs are
  /// checkpointed, restarts are exhausted, or a non-crash exception
  /// escapes a zone (rethrown). Call once.
  [[nodiscard]] DaemonResult run();

 private:
  [[nodiscard]] std::uint64_t config_fingerprint() const;
  void advance_population(std::uint64_t epoch);
  void prepare_zones(tag::TagSet tags);
  void resume_from_journal(DaemonResult& result);
  void run_epoch(std::uint64_t epoch, const std::stop_token& stop);
  void monitor_main(const std::stop_token& stop);
  /// Waits for the monitor life to end; requests the life's stop when the
  /// progress deadline passes. True iff it did (a hang restart).
  [[nodiscard]] bool supervise(std::stop_source& life);

  DaemonConfig config_;
  WarehouseConfig warehouse_;
  bool ran_ = false;

  // The daemon's state is journal_->state(): owned by the monitor thread
  // while it runs; the supervisor touches it only between joins.
  std::unique_ptr<storage::DaemonJournal> journal_;
  // Alerts a resume parked for the next checkpoint (the stale-journal
  // refusal), the only ones not yet in the journal.
  std::vector<storage::DaemonAlertRecord> pending_alerts_;

  // The watched population, owned by the monitor thread for one life and
  // derived afresh by each life's first epoch: the prepared zones, whose
  // TagSet is the daemon's only tag list; the sorted population indices of
  // stolen tags; and how many churn events have been applied.
  std::shared_ptr<const fleet::PreparedPopulation> population_;
  std::vector<std::uint64_t> stolen_;
  std::size_t churn_applied_ = 0;

  // Supervision plumbing. wd_mu_ orders what the supervisor waits on: the
  // monitor's progress and end, and each life's stop (the relay and the
  // hang kill request it under wd_mu_).
  std::atomic<std::uint64_t> epochs_committed_{0};
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool monitor_done_ = false;
  std::exception_ptr monitor_error_;
};

}  // namespace rfid::daemon
