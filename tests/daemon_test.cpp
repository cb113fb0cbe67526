// MonitorDaemon tests: epoch scheduling, tag churn and re-planning, alert
// debounce/escalation/quarantine/recovery, supervised crash and hang
// restarts with journal-replay resume, stale-journal quarantine, UTRP
// watches, and three scripted warehouses (TRP, UTRP, fused) whose epoch
// output is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "daemon/daemon.h"
#include "hash/fnv.h"
#include "fault/daemon_fault.h"
#include "fault/fault.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "storage/backend.h"
#include "storage/daemon_journal.h"
#include "storage/fleet_journal.h"

namespace {

using namespace rfid;

// 30 tags, capacity 10 -> 3 zones, M = 2. Small enough that a full epoch is
// milliseconds of simulated protocol work.
daemon::WarehouseConfig small_warehouse() {
  daemon::WarehouseConfig warehouse;
  warehouse.initial_tags = 30;
  warehouse.tolerance = 2;
  warehouse.zone_capacity = 10;
  warehouse.rounds = 2;
  return warehouse;
}

daemon::DaemonConfig base_config(storage::MemoryBackend& backend) {
  daemon::DaemonConfig config;
  config.seed = 7;
  config.epochs = 3;
  config.backend = &backend;
  config.backoff_initial_ms = 0;  // no need to pace restarts in tests
  config.backoff_cap_ms = 1;
  return config;
}

// A zone fault that makes the reader never come back: the zone fails its
// whole epoch when paired with faults_on_retries.
fault::FaultPlan dead_reader() {
  fault::FaultPlan plan;
  plan.reader_crashes.push_back(fault::CrashWindow{0.0, 0.0});
  return plan;
}

std::vector<daemon::DaemonAlertKind> kinds_of(
    const std::vector<daemon::DaemonAlert>& alerts) {
  std::vector<daemon::DaemonAlertKind> kinds;
  kinds.reserve(alerts.size());
  for (const daemon::DaemonAlert& alert : alerts) kinds.push_back(alert.kind);
  return kinds;
}

// Zone indices of the terminal records in the fleet journal, which holds
// the most recent epoch's fleet run; sorted, since workers race to append.
std::vector<std::uint64_t> fleet_journal_zones(
    const storage::MemoryBackend& backend) {
  std::vector<std::uint64_t> zones;
  const storage::FleetJournalScan scan = storage::scan_fleet_journal(
      backend.read(daemon::DaemonConfig{}.fleet_journal_name));
  for (const storage::FleetJournalRecord& record : scan.records) {
    if (const auto* zone = std::get_if<storage::FleetZoneRecord>(&record)) {
      zones.push_back(zone->zone);
    }
  }
  std::sort(zones.begin(), zones.end());
  return zones;
}

void expect_monotonic_sequences(
    const std::vector<daemon::DaemonAlert>& alerts) {
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    EXPECT_EQ(alerts[i].sequence, i) << "alert " << i;
  }
}

TEST(MonitorDaemon, QuietWarehouseStaysIntact) {
  storage::MemoryBackend backend;
  daemon::MonitorDaemon d(base_config(backend), small_warehouse());
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.epochs_completed, 3u);
  ASSERT_EQ(result.epoch_verdicts.size(), 3u);
  for (const daemon::EpochVerdict verdict : result.epoch_verdicts) {
    EXPECT_EQ(verdict, daemon::EpochVerdict::kIntact);
  }
  EXPECT_TRUE(result.alerts.empty());
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_FALSE(result.gave_up);
  EXPECT_EQ(result.replayed_alerts, 0u);
  EXPECT_EQ(result.journal_append_failures, 0u);

  // The last epoch's fleet run journaled one terminal record per planned
  // zone, and no other.
  EXPECT_EQ(fleet_journal_zones(backend),
            (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(MonitorDaemon, TheftLatchesOneViolationAlert) {
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  // From epoch 1 on, 6 of zone 0's 10 tags are gone — far over its share of
  // M = 2, so the zone verdict is violated (and stays violated).
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 1, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});

  daemon::MonitorDaemon d(base_config(backend), warehouse);
  const daemon::DaemonResult result = d.run();

  ASSERT_EQ(result.epoch_verdicts.size(), 3u);
  EXPECT_EQ(result.epoch_verdicts[0], daemon::EpochVerdict::kIntact);
  EXPECT_EQ(result.epoch_verdicts[1], daemon::EpochVerdict::kViolated);
  EXPECT_EQ(result.epoch_verdicts[2], daemon::EpochVerdict::kViolated);

  // The violation latches: one kZoneViolated at epoch 1, no re-alert at
  // epoch 2 while the incident is still open. The continued misses do feed
  // the debounce machine (escalation at the default 2-epoch streak).
  std::size_t violated = 0;
  for (const daemon::DaemonAlert& alert : result.alerts) {
    if (alert.kind == daemon::DaemonAlertKind::kZoneViolated) {
      ++violated;
      EXPECT_EQ(alert.epoch, 1u);
      EXPECT_EQ(alert.zone, 0u);
    }
  }
  EXPECT_EQ(violated, 1u);
  expect_monotonic_sequences(result.alerts);
}

TEST(MonitorDaemon, ChurnReplansZones) {
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  // Epoch 1: +20 tags -> 50 tags -> 5 zones. Epoch 2: retire 20 -> 30 tags
  // -> back to 3 zones.
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 1, .enroll = 20});
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 2, .decommission = 20});

  daemon::MonitorDaemon d(base_config(backend), warehouse);
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.epochs_completed, 3u);
  std::vector<const daemon::DaemonAlert*> replans;
  for (const daemon::DaemonAlert& alert : result.alerts) {
    if (alert.kind == daemon::DaemonAlertKind::kReplanned) {
      replans.push_back(&alert);
    }
  }
  ASSERT_EQ(replans.size(), 2u);
  EXPECT_EQ(replans[0]->epoch, 1u);
  EXPECT_NE(replans[0]->detail.find("zone count changed from 3 to 5"),
            std::string::npos);
  EXPECT_EQ(replans[1]->epoch, 2u);
  EXPECT_NE(replans[1]->detail.find("from 5 to 3"), std::string::npos);

  // The last epoch ran the shrunken plan: three zones, nothing left over
  // from the five-zone layout.
  EXPECT_EQ(fleet_journal_zones(backend),
            (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(MonitorDaemon, ReplanClampsToleranceAtAnyZoneCapacity) {
  // M = N - 1 fits one zone of 100 tags. Retiring one tag re-plans 99 tags,
  // so M clamps to 98 whatever the capacity: a capacity near 2^64 must not
  // wrap the zone count to 0 and skip the clamp.
  for (const std::uint64_t capacity : {std::uint64_t{0}, std::uint64_t{100},
                                       std::uint64_t{UINT64_MAX}}) {
    SCOPED_TRACE("zone_capacity = " + std::to_string(capacity));
    daemon::WarehouseConfig warehouse;
    warehouse.initial_tags = 100;
    warehouse.tolerance = 99;
    warehouse.zone_capacity = capacity;
    warehouse.rounds = 1;
    warehouse.churn.push_back(
        daemon::ChurnEvent{.epoch = 1, .decommission = 1});
    storage::MemoryBackend backend;
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 2;
    daemon::MonitorDaemon d(config, warehouse);
    daemon::DaemonResult result;
    ASSERT_NO_THROW(result = d.run());
    EXPECT_EQ(result.epochs_completed, 2u);
    EXPECT_FALSE(result.gave_up);
  }
}

TEST(MonitorDaemon, DebounceEscalatesOnConsecutiveMisses) {
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.zone_faults.push_back({.epoch = 0, .zone = 1, .plan = dead_reader()});
  warehouse.zone_faults.push_back({.epoch = 1, .zone = 1, .plan = dead_reader()});

  daemon::DaemonConfig config = base_config(backend);
  config.faults_on_retries = true;  // the outage outlives retries
  config.debounce_epochs = 2;
  config.quarantine_after_epochs = 4;

  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  ASSERT_EQ(result.epoch_verdicts.size(), 3u);
  EXPECT_EQ(result.epoch_verdicts[0], daemon::EpochVerdict::kInconclusive);
  EXPECT_EQ(result.epoch_verdicts[1], daemon::EpochVerdict::kInconclusive);
  EXPECT_EQ(result.epoch_verdicts[2], daemon::EpochVerdict::kIntact);

  // One miss is noise — the only alert is the escalation when the streak
  // reaches debounce_epochs.
  const std::vector<daemon::DaemonAlertKind> kinds = kinds_of(result.alerts);
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], daemon::DaemonAlertKind::kZoneEscalated);
  EXPECT_EQ(result.alerts[0].epoch, 1u);
  EXPECT_EQ(result.alerts[0].zone, 1u);
}

TEST(MonitorDaemon, QuarantineDegradesVerdictThenRecovers) {
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    warehouse.zone_faults.push_back(
        {.epoch = epoch, .zone = 0, .plan = dead_reader()});
  }

  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 5;
  config.faults_on_retries = true;
  config.debounce_epochs = 1;
  config.quarantine_after_epochs = 2;
  config.quarantine_cooldown_epochs = 2;

  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  ASSERT_EQ(result.epoch_verdicts.size(), 5u);
  // Epochs 0-1: healthy-zone failures void the pigeonhole -> inconclusive.
  // Epoch 2: the zone was quarantined before the epoch -> degraded only.
  // Epochs 3-4: outage over -> intact (recovery completes at epoch 4).
  EXPECT_EQ(result.epoch_verdicts[0], daemon::EpochVerdict::kInconclusive);
  EXPECT_EQ(result.epoch_verdicts[1], daemon::EpochVerdict::kInconclusive);
  EXPECT_EQ(result.epoch_verdicts[2], daemon::EpochVerdict::kDegraded);
  EXPECT_EQ(result.epoch_verdicts[3], daemon::EpochVerdict::kIntact);
  EXPECT_EQ(result.epoch_verdicts[4], daemon::EpochVerdict::kIntact);

  const std::vector<daemon::DaemonAlertKind> kinds = kinds_of(result.alerts);
  const std::vector<daemon::DaemonAlertKind> expected = {
      daemon::DaemonAlertKind::kZoneEscalated,    // epoch 0 (debounce = 1)
      daemon::DaemonAlertKind::kZoneQuarantined,  // epoch 1 (streak = 2)
      daemon::DaemonAlertKind::kZoneRecovered,    // epoch 4 (cooldown = 2)
  };
  EXPECT_EQ(kinds, expected);
  expect_monotonic_sequences(result.alerts);
}

TEST(MonitorDaemon, CrashRestartsReplayIdenticalHistory) {
  // Baseline: no faults.
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 1, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});
  std::string baseline;
  std::vector<daemon::EpochVerdict> baseline_verdicts;
  {
    storage::MemoryBackend backend;
    daemon::MonitorDaemon d(base_config(backend), warehouse);
    const daemon::DaemonResult result = d.run();
    baseline = daemon::render_alert_history(result.alerts);
    baseline_verdicts = result.epoch_verdicts;
    EXPECT_FALSE(baseline.empty());
  }

  // Crash on both sides of the checkpoint write.
  fault::DaemonFaultPlan plan;
  plan.crashes.push_back({1, fault::DaemonCrashPoint::kBeforeCheckpoint});
  plan.crashes.push_back({2, fault::DaemonCrashPoint::kAfterCheckpoint});
  fault::DaemonFaultInjector faults(plan);

  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  config.faults = &faults;
  config.crash_hook = [&backend] { backend.crash(); };
  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.crash_restarts, 2u);
  EXPECT_EQ(result.hang_restarts, 0u);
  EXPECT_FALSE(result.gave_up);
  EXPECT_GT(result.replayed_alerts, 0u);
  EXPECT_EQ(result.epoch_verdicts, baseline_verdicts);
  EXPECT_EQ(daemon::render_alert_history(result.alerts), baseline);
  expect_monotonic_sequences(result.alerts);
}

TEST(MonitorDaemon, RestartEventNamesTheFirstUncheckpointedEpoch) {
  // The crash lands after epoch 1's checkpoint is durable: the next life
  // resumes at epoch 2, and the restart event says so.
  fault::DaemonFaultPlan plan;
  plan.crashes.push_back({1, fault::DaemonCrashPoint::kAfterCheckpoint});
  fault::DaemonFaultInjector faults(plan);

  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  config.faults = &faults;
  daemon::MonitorDaemon d(config, small_warehouse());
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.crash_restarts, 1u);
  EXPECT_EQ(result.epochs_completed, 3u);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].kind, daemon::DaemonEventKind::kCrashRestart);
  EXPECT_EQ(result.events[0].epoch, 2u);
}

TEST(MonitorDaemon, WatchdogKillsAndRestartsHungMonitor) {
  std::string baseline;
  {
    storage::MemoryBackend backend;
    daemon::MonitorDaemon d(base_config(backend), small_warehouse());
    baseline = daemon::render_alert_history(d.run().alerts);
  }

  fault::DaemonFaultPlan plan;
  plan.hang_epochs.push_back(1);
  fault::DaemonFaultInjector faults(plan);

  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  config.faults = &faults;
  config.hang_timeout_ms = 50;
  daemon::MonitorDaemon d(config, small_warehouse());
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.hang_restarts, 1u);
  EXPECT_EQ(faults.hangs_delivered(), 1u);
  EXPECT_EQ(result.epochs_completed, 3u);
  EXPECT_FALSE(result.gave_up);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].kind, daemon::DaemonEventKind::kHangRestart);
  EXPECT_EQ(result.events[0].epoch, 1u);
  EXPECT_EQ(daemon::render_alert_history(result.alerts), baseline);
}

TEST(MonitorDaemon, GivesUpLoudlyWhenRestartsExhaust) {
  fault::DaemonFaultPlan plan;
  for (int i = 0; i < 4; ++i) {
    plan.crashes.push_back({1, fault::DaemonCrashPoint::kEpochStart});
  }
  fault::DaemonFaultInjector faults(plan);

  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  config.faults = &faults;
  config.max_restarts = 2;
  daemon::MonitorDaemon d(config, small_warehouse());
  const daemon::DaemonResult result = d.run();

  EXPECT_TRUE(result.gave_up);
  EXPECT_EQ(result.restarts, 3u);  // the attempt that exceeded the cap counts
  EXPECT_EQ(result.epochs_completed, 1u);  // epoch 0 committed before dying
  ASSERT_FALSE(result.events.empty());
  EXPECT_EQ(result.events.back().kind, daemon::DaemonEventKind::kGaveUp);
}

TEST(MonitorDaemon, ResumesAcrossProcessLives) {
  // One backend, two daemon lives: the first checkpoints 2 epochs, the
  // second opens the same journal and finishes 4 — and must match a daemon
  // that lived through all 4 epochs in one process, bit for bit.
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 2, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});

  std::string baseline;
  {
    storage::MemoryBackend backend;
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 4;
    daemon::MonitorDaemon d(config, warehouse);
    baseline = daemon::render_alert_history(d.run().alerts);
  }

  storage::MemoryBackend backend;
  {
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 2;
    daemon::MonitorDaemon d(config, warehouse);
    const daemon::DaemonResult result = d.run();
    EXPECT_EQ(result.epochs_completed, 2u);
  }
  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 4;
  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.epochs_completed, 4u);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_EQ(daemon::render_alert_history(result.alerts), baseline);
  expect_monotonic_sequences(result.alerts);
}

TEST(MonitorDaemon, ExternalAbortGivesUpInsteadOfRestarting) {
  // The external stop switch (DaemonConfig::abort — the service's drain
  // path) must not be treated as a crash to supervise: no restarts, no
  // backoff, just an early gave_up return.
  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  std::stop_source abort;
  abort.request_stop();  // stopped before the first epoch
  config.abort = abort.get_token();
  daemon::MonitorDaemon d(config, small_warehouse());
  const daemon::DaemonResult result = d.run();

  EXPECT_TRUE(result.gave_up);
  EXPECT_EQ(result.epochs_completed, 0u);
  EXPECT_EQ(result.restarts, 0u);
  ASSERT_FALSE(result.events.empty());
  EXPECT_EQ(result.events.back().kind, daemon::DaemonEventKind::kGaveUp);
}

TEST(MonitorDaemon, ExternalAbortMidRunKeepsCheckpointedEpochsDurable) {
  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 1000000;  // far more than the abort window allows
  std::stop_source abort;
  config.abort = abort.get_token();
  daemon::MonitorDaemon d(config, small_warehouse());
  std::thread stopper([&abort] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    abort.request_stop();
  });
  const daemon::DaemonResult result = d.run();
  stopper.join();

  EXPECT_TRUE(result.gave_up);
  EXPECT_LT(result.epochs_completed, 1000000u);
  // Whatever was checkpointed before the stop is durable and scannable —
  // a later daemon resumes from it exactly as after a supervisor kill.
  const storage::DaemonJournalScan scan =
      storage::scan_daemon_journal(backend.read("daemon.journal"));
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_GE(scan.records.size(), result.epochs_completed);
}

TEST(MonitorDaemon, ExternalStopWakesAHungEpoch) {
  // The external stop reaches a hung epoch through the monitor life's own
  // stop at once, not at the hang deadline, and it is a give-up, not a
  // hang restart.
  fault::DaemonFaultPlan plan;
  plan.hang_epochs.push_back(1);
  fault::DaemonFaultInjector faults(plan);

  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  config.faults = &faults;
  config.hang_timeout_ms = 60000;
  std::stop_source abort;
  config.abort = abort.get_token();
  daemon::MonitorDaemon d(config, small_warehouse());
  const auto t0 = std::chrono::steady_clock::now();
  std::thread stopper([&] {
    while (faults.hangs_delivered() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    abort.request_stop();
  });
  const daemon::DaemonResult result = d.run();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  stopper.join();

  EXPECT_TRUE(result.gave_up);
  EXPECT_EQ(result.hang_restarts, 0u);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_EQ(faults.hangs_delivered(), 1u);
  EXPECT_EQ(result.epochs_completed, 1u);  // epoch 0 checkpointed first
  ASSERT_FALSE(result.events.empty());
  EXPECT_EQ(result.events.back().kind, daemon::DaemonEventKind::kGaveUp);
  EXPECT_LT(elapsed, std::chrono::seconds(20));  // the deadline is 60 s
}

TEST(DaemonFaultInjector, StoppedTokenEndsAScriptedHangAtOnce) {
  fault::DaemonFaultPlan plan;
  plan.hang_epochs.push_back(1);
  fault::DaemonFaultInjector faults(plan);
  std::stop_source stop;
  stop.request_stop();

  faults.maybe_hang(0, stop.get_token());  // unscripted: returns
  EXPECT_EQ(faults.hangs_delivered(), 0u);
  EXPECT_THROW(faults.maybe_hang(1, stop.get_token()), fault::CrashInjected);
  EXPECT_EQ(faults.hangs_delivered(), 1u);
}

TEST(MonitorDaemon, StaleJournalIsQuarantinedNotReplayed) {
  storage::MemoryBackend backend;
  {
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 2;
    daemon::MonitorDaemon d(config, small_warehouse());
    EXPECT_EQ(d.run().epochs_completed, 2u);
  }

  // Same (seed, name), different monitoring plan: the recorded health
  // machines describe zones that no longer mean the same thing.
  daemon::WarehouseConfig changed = small_warehouse();
  changed.tolerance = 3;
  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 2;
  daemon::MonitorDaemon d(config, changed);
  const daemon::DaemonResult result = d.run();

  // Monitoring restarted at epoch 0 and the refusal reached the operator.
  EXPECT_EQ(result.epochs_completed, 2u);
  EXPECT_EQ(result.replayed_alerts, 0u);
  ASSERT_FALSE(result.alerts.empty());
  EXPECT_EQ(result.alerts[0].kind,
            daemon::DaemonAlertKind::kStaleJournalQuarantined);
  EXPECT_EQ(result.alerts[0].sequence, 0u);
  EXPECT_EQ(result.alerts[0].epoch, 0u);
}

TEST(MonitorDaemon, PersistentlyDishonestReaderIsBenchedAndParoled) {
  // A k = 3 warehouse where zone 0's reader 1 forges "all present" every
  // epoch, over a real theft. The fused vote overrules it (verdicts stay
  // violated throughout), and the reader tier benches it: quarantined after
  // 2 suspect epochs, excluded from scans, paroled after the cooldown —
  // and, still dishonest, benched again.
  storage::MemoryBackend backend;
  obs::MetricsRegistry metrics;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.fusion.readers = 3;
  warehouse.dishonest_readers.emplace_back(0, 1);
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 0, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});

  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 6;
  config.metrics = &metrics;
  config.debounce_epochs = 1;
  config.quarantine_after_epochs = 2;
  config.quarantine_cooldown_epochs = 2;

  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  // The forger never hides the theft: two honest readers outvote it in
  // every epoch, benched or not.
  ASSERT_EQ(result.epoch_verdicts.size(), 6u);
  for (const daemon::EpochVerdict verdict : result.epoch_verdicts) {
    EXPECT_EQ(verdict, daemon::EpochVerdict::kViolated);
  }

  // Epoch 0: violation latches + escalation (debounce = 1). Epoch 1: the
  // reader's second suspect epoch benches it (reader tier runs before the
  // zone tier, which quarantines the still-missing zone in the same
  // epoch). Epoch 3: cooldown served, paroled on faith. Epochs 4-5: it
  // forges again, two more suspect epochs, benched again.
  const std::vector<daemon::DaemonAlertKind> kinds = kinds_of(result.alerts);
  const std::vector<daemon::DaemonAlertKind> expected = {
      daemon::DaemonAlertKind::kZoneViolated,      // epoch 0
      daemon::DaemonAlertKind::kZoneEscalated,     // epoch 0
      daemon::DaemonAlertKind::kReaderQuarantined, // epoch 1
      daemon::DaemonAlertKind::kZoneQuarantined,   // epoch 1
      daemon::DaemonAlertKind::kReaderRecovered,   // epoch 3
      daemon::DaemonAlertKind::kReaderQuarantined, // epoch 5
  };
  EXPECT_EQ(kinds, expected);
  expect_monotonic_sequences(result.alerts);
  for (const daemon::DaemonAlert& alert : result.alerts) {
    if (alert.kind == daemon::DaemonAlertKind::kReaderQuarantined ||
        alert.kind == daemon::DaemonAlertKind::kReaderRecovered) {
      EXPECT_EQ(alert.zone, 0u);
      EXPECT_NE(alert.detail.find("reader 1"), std::string::npos);
    }
  }
  EXPECT_EQ(
      obs::catalog::fusion_readers_quarantined_total(metrics).value(), 2u);
}

TEST(MonitorDaemon, JournalRotationKeepsResumeO1AndHistoryIdentical) {
  // rotate_after = 2 folds the journal into [start][snapshot] every two
  // checkpoints, so the on-disk record count is bounded no matter how long
  // the daemon lives — and a resumed life must still reconstruct the exact
  // history an unrotated straight-through run produces.
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 2, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});

  std::string baseline;
  std::vector<daemon::EpochVerdict> baseline_verdicts;
  {
    storage::MemoryBackend backend;
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 6;
    daemon::MonitorDaemon d(config, warehouse);
    const daemon::DaemonResult result = d.run();
    baseline = daemon::render_alert_history(result.alerts);
    baseline_verdicts = result.epoch_verdicts;
    const auto scan = storage::scan_daemon_journal(backend.read(
        daemon::DaemonConfig{}.journal_name));
    EXPECT_EQ(scan.records.size(), 7u);  // start + one checkpoint per epoch
  }

  storage::MemoryBackend backend;
  {
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 4;
    config.journal_rotate_after = 2;
    daemon::MonitorDaemon d(config, warehouse);
    EXPECT_EQ(d.run().epochs_completed, 4u);
  }
  // Epoch 4's checkpoint triggered the second rotation, so the journal a
  // resuming life opens is exactly [start][snapshot] — O(1) records to
  // replay, not O(epochs).
  {
    const auto scan = storage::scan_daemon_journal(backend.read(
        daemon::DaemonConfig{}.journal_name));
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_TRUE(std::holds_alternative<storage::DaemonSnapshotRecord>(
        scan.records[1]));
    const auto& snapshot =
        std::get<storage::DaemonSnapshotRecord>(scan.records[1]);
    EXPECT_EQ(snapshot.verdicts.size(), 4u);
  }

  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 6;
  config.journal_rotate_after = 2;
  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.epochs_completed, 6u);
  EXPECT_EQ(result.epoch_verdicts, baseline_verdicts);
  EXPECT_EQ(daemon::render_alert_history(result.alerts), baseline);
  expect_monotonic_sequences(result.alerts);
}

TEST(MonitorDaemon, TheftAlertNamesTheStolenTagsWhenDrillDownEnabled) {
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 1, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});
  warehouse.identify.enabled = true;

  daemon::MonitorDaemon d(base_config(backend), warehouse);
  const daemon::DaemonResult result = d.run();

  const daemon::DaemonAlert* violated = nullptr;
  for (const daemon::DaemonAlert& alert : result.alerts) {
    if (alert.kind == daemon::DaemonAlertKind::kZoneViolated) {
      EXPECT_EQ(violated, nullptr) << "violation must still latch once";
      violated = &alert;
    }
  }
  ASSERT_NE(violated, nullptr);
  EXPECT_EQ(violated->zone, 0u);
  // The drill-down named all 6 stolen tags and the detail says so.
  EXPECT_EQ(violated->missing_tags.size(), 6u);
  EXPECT_NE(violated->detail.find("identified 6 missing tag(s)"),
            std::string::npos);
  EXPECT_NE(violated->detail.find("[filter_first]"), std::string::npos);

  // The canonical rendering carries the names (one line per tag).
  const std::string history = daemon::render_alert_history(result.alerts);
  EXPECT_NE(history.find("    missing urn:epc:raw:"), std::string::npos);
  EXPECT_NE(history.find(violated->missing_tags[0].to_string()),
            std::string::npos);

  // And the journal made them durable: the checkpoint's alert record holds
  // the same list a fresh scan decodes back.
  const auto scan = storage::scan_daemon_journal(
      backend.read(daemon::DaemonConfig{}.journal_name));
  EXPECT_EQ(scan.version, 3u);
  bool found = false;
  for (const auto& record : scan.records) {
    const auto* checkpoint =
        std::get_if<storage::DaemonCheckpointRecord>(&record);
    if (checkpoint == nullptr) continue;
    for (const storage::DaemonAlertRecord& alert : checkpoint->alerts) {
      if (alert.kind ==
          static_cast<std::uint8_t>(daemon::DaemonAlertKind::kZoneViolated)) {
        found = true;
        ASSERT_EQ(alert.missing.size(), 6u);
        for (std::size_t i = 0; i < 6; ++i) {
          EXPECT_EQ(alert.missing[i], violated->missing_tags[i]);
        }
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(MonitorDaemon, KillResumeStaysBitIdenticalWithNamedTagAlerts) {
  // The acceptance scenario: crash on both sides of the checkpoint while
  // the drill-down is naming tags — the resumed history, named tags
  // included, must match an uncrashed daemon bit for bit.
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 1, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});
  warehouse.identify.enabled = true;

  std::string baseline;
  std::vector<daemon::EpochVerdict> baseline_verdicts;
  {
    storage::MemoryBackend backend;
    daemon::MonitorDaemon d(base_config(backend), warehouse);
    const daemon::DaemonResult result = d.run();
    baseline = daemon::render_alert_history(result.alerts);
    baseline_verdicts = result.epoch_verdicts;
    ASSERT_NE(baseline.find("    missing urn:epc:raw:"), std::string::npos);
  }

  fault::DaemonFaultPlan plan;
  plan.crashes.push_back({1, fault::DaemonCrashPoint::kBeforeCheckpoint});
  plan.crashes.push_back({2, fault::DaemonCrashPoint::kAfterCheckpoint});
  fault::DaemonFaultInjector faults(plan);

  storage::MemoryBackend backend;
  daemon::DaemonConfig config = base_config(backend);
  config.faults = &faults;
  config.crash_hook = [&backend] { backend.crash(); };
  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(result.crash_restarts, 2u);
  EXPECT_FALSE(result.gave_up);
  EXPECT_EQ(result.epoch_verdicts, baseline_verdicts);
  EXPECT_EQ(daemon::render_alert_history(result.alerts), baseline);
  expect_monotonic_sequences(result.alerts);
}

// Byte-level helpers for forging a format-2 daemon journal (the layout an
// old build actually wrote: v3 minus the per-alert missing-tag list).
std::uint32_t le32_at(const std::string& b, std::size_t at) {
  return static_cast<std::uint32_t>(
      static_cast<unsigned char>(b[at]) |
      (static_cast<unsigned char>(b[at + 1]) << 8) |
      (static_cast<unsigned char>(b[at + 2]) << 16) |
      (static_cast<unsigned char>(b[at + 3]) << 24));
}

void append_daemon_frame(std::string& out, std::string_view payload) {
  const std::uint64_t sum = hash::fnv1a64(
      std::as_bytes(std::span(payload.data(), payload.size())));
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xffU));
  }
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((sum >> (8 * i)) & 0xffU));
  }
  out.append(payload);
}

// Strips each alert's (empty) missing-list count from a v3 checkpoint
// payload, yielding the byte-identical v2 encoding. Layout: header 22 bytes
// (kind u8, epoch u64, verdict u8, next_seq u64, zones u32), per-zone
// health 22 + 13*readers bytes, alerts u32, then per alert seq u64 +
// kind u8 + epoch u64 + zone u64 + detail (u32 len + bytes) +
// missing u32 — the last field being what v2 lacks.
std::string downgrade_checkpoint_payload(std::string payload) {
  std::size_t at = 1 + 8 + 1 + 8;
  const std::uint32_t zones = le32_at(payload, at);
  at += 4;
  for (std::uint32_t z = 0; z < zones; ++z) {
    const std::uint32_t readers = le32_at(payload, at + 18);
    at += 22 + 13 * static_cast<std::size_t>(readers);
  }
  const std::uint32_t alerts = le32_at(payload, at);
  at += 4;
  for (std::uint32_t a = 0; a < alerts; ++a) {
    at += 8 + 1 + 8 + 8;                       // seq, kind, epoch, zone
    at += 4 + le32_at(payload, at);            // detail
    EXPECT_EQ(le32_at(payload, at), 0u);       // empty missing list
    payload.erase(at, 4);
  }
  EXPECT_EQ(at, payload.size());
  return payload;
}

TEST(MonitorDaemon, ResumesALegacyFormat2JournalAndRewritesIt) {
  // A daemon that checkpointed under the format-2 magic must still resume
  // (alerts decode with empty missing lists), and open() must rewrite the
  // journal to the current format before appending anything: v3 frames
  // under a v2 magic would corrupt every later scan.
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 1, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});

  std::string baseline;
  {
    storage::MemoryBackend backend;
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 4;
    daemon::MonitorDaemon d(config, warehouse);
    baseline = daemon::render_alert_history(d.run().alerts);
  }

  storage::MemoryBackend backend;
  {
    daemon::DaemonConfig config = base_config(backend);
    config.epochs = 2;
    daemon::MonitorDaemon d(config, warehouse);
    ASSERT_EQ(d.run().epochs_completed, 2u);
  }

  // Downgrade the journal on disk to format 2: swap the magic and strip
  // the zero missing-count after every alert detail, re-framing each
  // record's [len][checksum] header.
  const std::string name = daemon::DaemonConfig{}.journal_name;
  const std::string bytes = backend.read(name);
  ASSERT_EQ(storage::scan_daemon_journal(bytes).version, 3u);
  std::string v2(storage::kDaemonJournalMagicV2);
  std::size_t pos = storage::kDaemonJournalMagic.size();
  while (pos < bytes.size()) {
    const std::uint32_t len = le32_at(bytes, pos);
    std::string payload = bytes.substr(pos + 12, len);
    if (!payload.empty() && static_cast<std::uint8_t>(payload[0]) == 2) {
      payload = downgrade_checkpoint_payload(std::move(payload));
    }
    append_daemon_frame(v2, payload);
    pos += 12 + len;
  }
  backend.remove(name);
  backend.append(name, v2);
  backend.flush(name);

  // Sanity: the downgraded journal scans as format 2 with intact records.
  {
    const auto scan = storage::scan_daemon_journal(backend.read(name));
    EXPECT_EQ(scan.version, 2u);
    EXPECT_EQ(scan.dropped_bytes, 0u);
    ASSERT_EQ(scan.records.size(), 3u);  // start + 2 checkpoints
  }

  // The second life resumes it and finishes epochs 2..3; the history must
  // match the straight-through baseline, and the journal on disk must now
  // carry the current magic (rotated on open, before any append).
  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 4;
  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();
  EXPECT_EQ(result.epochs_completed, 4u);
  EXPECT_EQ(daemon::render_alert_history(result.alerts), baseline);
  const auto scan = storage::scan_daemon_journal(backend.read(name));
  EXPECT_EQ(scan.version, 3u);
  EXPECT_EQ(scan.dropped_bytes, 0u);
}

std::string history_with_theft(std::uint64_t steal, std::uint64_t steal_from) {
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 1,
                                               .enroll = 0,
                                               .decommission = 0,
                                               .steal = steal,
                                               .steal_from = steal_from});
  daemon::MonitorDaemon d(base_config(backend), warehouse);
  const daemon::DaemonResult result = d.run();
  EXPECT_EQ(result.epochs_completed, 3u);
  return daemon::render_alert_history(result.alerts);
}

TEST(MonitorDaemon, UnboundedStealStopsAtThePopulationEnd) {
  // The walk covers [steal_from, min(steal_from + steal, n)) only: a
  // steal of 2^64 - 1 ending past the population is the same theft as the
  // two tags that exist, not 2^64 loop iterations.
  const std::uint64_t n = small_warehouse().initial_tags;
  const std::string two = history_with_theft(2, n - 2);
  EXPECT_NE(two.find("zone_violated"), std::string::npos);
  EXPECT_EQ(history_with_theft(UINT64_MAX, n - 2), two);
}

TEST(MonitorDaemon, StealRangePastTheIndexSpaceStealsNothing) {
  // steal_from + steal wraps: nothing at or after steal_from exists, so
  // nothing is stolen (the wrapped indices 0..3 must not be).
  EXPECT_EQ(history_with_theft(10, UINT64_MAX - 5), history_with_theft(0, 0));
  EXPECT_EQ(history_with_theft(0, 0).find("zone_violated"),
            std::string::npos);
}

TEST(MonitorDaemon, MetricsCountEpochsAlertsAndRestarts) {
  fault::DaemonFaultPlan plan;
  plan.crashes.push_back({1, fault::DaemonCrashPoint::kBeforeCheckpoint});
  fault::DaemonFaultInjector faults(plan);

  storage::MemoryBackend backend;
  obs::MetricsRegistry metrics;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{
      .epoch = 1, .enroll = 0, .decommission = 0, .steal = 6, .steal_from = 0});
  daemon::DaemonConfig config = base_config(backend);
  config.faults = &faults;
  config.crash_hook = [&backend] { backend.crash(); };
  config.metrics = &metrics;
  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();

  EXPECT_EQ(obs::catalog::daemon_epochs_total(metrics, "intact").value(), 1u);
  EXPECT_EQ(obs::catalog::daemon_epochs_total(metrics, "violated").value(),
            2u);
  EXPECT_EQ(obs::catalog::daemon_checkpoints_total(metrics).value(), 3u);
  EXPECT_EQ(obs::catalog::daemon_restarts_total(metrics, "crash").value(),
            1u);
  EXPECT_EQ(
      obs::catalog::daemon_alerts_total(metrics, "zone_violated").value(),
      1u);
  // Replayed alerts are counted separately, never re-counted as raised.
  EXPECT_EQ(obs::catalog::daemon_replayed_alerts_total(metrics).value(),
            result.replayed_alerts);
}

TEST(MonitorDaemon, RejectsChurnOutOfEpochOrder) {
  // A script listed out of epoch order would be replayed out of order: the
  // epoch-1 decommission would run after the epoch-2 theft and retire the
  // stolen tags before any epoch saw them missing.
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 2, .steal = 3, .steal_from = 0});
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 1, .decommission = 3});
  EXPECT_THROW(daemon::MonitorDaemon(base_config(backend), warehouse),
               std::invalid_argument);

  // In epoch order the theft is seen. Events may share an epoch.
  std::swap(warehouse.churn[0], warehouse.churn[1]);
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 2});
  daemon::MonitorDaemon d(base_config(backend), warehouse);
  const daemon::DaemonResult result = d.run();
  const std::vector<daemon::EpochVerdict> expected = {
      daemon::EpochVerdict::kIntact, daemon::EpochVerdict::kIntact,
      daemon::EpochVerdict::kViolated};
  EXPECT_EQ(result.epoch_verdicts, expected);
  EXPECT_EQ(kinds_of(result.alerts),
            std::vector<daemon::DaemonAlertKind>{
                daemon::DaemonAlertKind::kZoneViolated});
}

std::uint64_t fnv_of(std::string_view bytes) {
  return hash::fnv1a64(std::as_bytes(std::span(bytes.data(), bytes.size())));
}

TEST(MonitorDaemon, ScriptedWarehouseMatchesPinnedOutput) {
  // Every epoch stage in one script: a re-plan up (enroll) and back down
  // (decommission), a theft named by the drill-down, and a zone whose
  // reader stays dead through its retries. The pins hash what the daemon
  // exposes: alert history, verdicts, and both journals' final bytes. A
  // change to how an epoch is computed must leave all four as they are.
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 1, .enroll = 20});
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 2, .steal = 6, .steal_from = 0});
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 4, .decommission = 20});
  for (std::uint64_t epoch = 4; epoch < 6; ++epoch) {
    warehouse.zone_faults.push_back(
        {.epoch = epoch, .zone = 1, .plan = dead_reader()});
  }
  warehouse.identify.enabled = true;
  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 6;
  config.faults_on_retries = true;

  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();
  ASSERT_EQ(result.epochs_completed, 6u);

  std::string verdicts;
  for (const daemon::EpochVerdict verdict : result.epoch_verdicts) {
    verdicts.push_back(static_cast<char>(verdict));
  }
  const std::string history = daemon::render_alert_history(result.alerts);
  EXPECT_EQ(fnv_of(history), 0x4942303030905f7bULL) << history;
  EXPECT_EQ(fnv_of(verdicts), 0x408cfdf1d849e99fULL);
  EXPECT_EQ(fnv_of(backend.read(config.journal_name)),
            0xc6e589f4b37dc71aULL);
  EXPECT_EQ(fnv_of(backend.read(config.fleet_journal_name)),
            0x51011961cc3518a4ULL);
}

TEST(MonitorDaemon, UtrpWarehouseMatchesPinnedOutput) {
  // The UTRP side of the pin above: a theft named by the drill-down and
  // still open next epoch; a re-plan up (enroll) under the open theft,
  // which resets the health machines, so the same zone is named again; then
  // a decommission that re-plans down and shifts the stolen tags into
  // another zone.
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.protocol = fleet::Protocol::kUtrp;
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 1, .steal = 6, .steal_from = 12});
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 3, .enroll = 10});
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 5, .decommission = 10});
  warehouse.identify.enabled = true;
  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 7;

  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();
  ASSERT_EQ(result.epochs_completed, 7u);

  std::string verdicts;
  for (const daemon::EpochVerdict verdict : result.epoch_verdicts) {
    verdicts.push_back(static_cast<char>(verdict));
  }
  const std::string history = daemon::render_alert_history(result.alerts);
  EXPECT_EQ(fnv_of(history), 0x5c21cf6dc170b471ULL) << history;
  EXPECT_EQ(fnv_of(verdicts), 0x104f0303f4946f75ULL);
  EXPECT_EQ(fnv_of(backend.read(config.journal_name)),
            0x5afa349d552fc828ULL);
  EXPECT_EQ(fnv_of(backend.read(config.fleet_journal_name)),
            0xb672fc3933c66becULL);
}

TEST(MonitorDaemon, FusedWarehouseMatchesPinnedOutput) {
  // k = 3 readers per zone, zone 0's reader 1 forging "all present" over a
  // theft: benched, paroled and benched again. Epoch 3 retires 5 tags and
  // enrolls 5: the population size, plan and health machines stay, but
  // every zone's membership moves and the stolen tags shift to indices 0-4.
  // The epoch-4 theft in zone 2 is named from the moved membership.
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.fusion.readers = 3;
  warehouse.dishonest_readers.emplace_back(0, 1);
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 0, .steal = 5, .steal_from = 5});
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 3, .enroll = 5, .decommission = 5});
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 4, .steal = 5, .steal_from = 20});
  warehouse.identify.enabled = true;
  daemon::DaemonConfig config = base_config(backend);
  config.epochs = 7;
  config.debounce_epochs = 1;
  config.quarantine_after_epochs = 2;
  config.quarantine_cooldown_epochs = 2;

  daemon::MonitorDaemon d(config, warehouse);
  const daemon::DaemonResult result = d.run();
  ASSERT_EQ(result.epochs_completed, 7u);

  std::string verdicts;
  for (const daemon::EpochVerdict verdict : result.epoch_verdicts) {
    verdicts.push_back(static_cast<char>(verdict));
  }
  const std::string history = daemon::render_alert_history(result.alerts);
  EXPECT_EQ(fnv_of(history), 0xe4d58d8ecdba2534ULL) << history;
  EXPECT_EQ(fnv_of(verdicts), 0x1974b59b26a692feULL);
  EXPECT_EQ(fnv_of(backend.read(config.journal_name)),
            0xf8d4436040859451ULL);
  EXPECT_EQ(fnv_of(backend.read(config.fleet_journal_name)),
            0x471db38bf698a13bULL);
}

TEST(MonitorDaemon, TwoEnrollmentsInOneEpochDrawDistinctTags) {
  // Both enrollments of epoch 1 draw from that epoch's one stream, so the
  // ten tags they add are ten different tags, and stealing all ten names
  // ten distinct IDs.
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse;
  warehouse.initial_tags = 40;
  warehouse.tolerance = 1;
  warehouse.zone_capacity = 0;
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 1, .enroll = 5});
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = 1, .enroll = 5});
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 2, .steal = 10, .steal_from = 40});
  warehouse.identify.enabled = true;

  daemon::MonitorDaemon d(base_config(backend), warehouse);
  const daemon::DaemonResult result = d.run();

  const daemon::DaemonAlert* violated = nullptr;
  for (const daemon::DaemonAlert& alert : result.alerts) {
    if (alert.kind == daemon::DaemonAlertKind::kZoneViolated) violated = &alert;
  }
  ASSERT_NE(violated, nullptr);
  EXPECT_EQ(violated->epoch, 2u);
  EXPECT_NE(violated->detail.find("identified 10 missing tag(s)"),
            std::string::npos);
  std::vector<tag::TagId> named = violated->missing_tags;
  std::sort(named.begin(), named.end());
  EXPECT_EQ(std::unique(named.begin(), named.end()) - named.begin(), 10);
}

TEST(MonitorDaemon, UtrpWarehouseLatchesTheft) {
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.protocol = fleet::Protocol::kUtrp;
  warehouse.churn.push_back(
      daemon::ChurnEvent{.epoch = 1, .steal = 6, .steal_from = 0});

  daemon::MonitorDaemon d(base_config(backend), warehouse);
  const daemon::DaemonResult result = d.run();

  const std::vector<daemon::EpochVerdict> verdicts = {
      daemon::EpochVerdict::kIntact, daemon::EpochVerdict::kViolated,
      daemon::EpochVerdict::kViolated};
  EXPECT_EQ(result.epoch_verdicts, verdicts);
  const std::vector<daemon::DaemonAlertKind> kinds = {
      daemon::DaemonAlertKind::kZoneViolated,
      daemon::DaemonAlertKind::kZoneEscalated};
  EXPECT_EQ(kinds_of(result.alerts), kinds);
  for (const daemon::DaemonAlert& alert : result.alerts) {
    EXPECT_EQ(alert.zone, 0u);
  }
}

TEST(MonitorDaemon, UnsatisfiableUtrpShapeFailsTheRun) {
  // No UTRP frame meets alpha against a budget this large. That is a bad
  // configuration, not a crash: run() rethrows it instead of restarting.
  storage::MemoryBackend backend;
  daemon::WarehouseConfig warehouse = small_warehouse();
  warehouse.protocol = fleet::Protocol::kUtrp;
  warehouse.comm_budget = 1'000'000'000;
  warehouse.alpha = 0.999999;

  daemon::MonitorDaemon d(base_config(backend), warehouse);
  try {
    (void)d.run();
    FAIL() << "run() must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string_view(error.what())
                  .find("frame optimization: no frame size up to 2^24"),
              0u)
        << error.what();
  }
}

}  // namespace
