#include "daemon/daemon.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>
#include <optional>
#include <ranges>
#include <thread>
#include <utility>

#include "obs/catalog.h"
#include "server/group_planner.h"
#include "util/expect.h"
#include "util/random.h"

namespace rfid::daemon {

namespace {

constexpr std::uint64_t kPopulationSalt = 0x706f70756cULL;  // "popul"
constexpr std::uint64_t kChurnSalt = 0x636875726eULL;       // "churn"
constexpr std::uint64_t kEpochSalt = 0x65706f6368ULL;       // "epoch"

[[nodiscard]] std::string_view restart_cause(DaemonEventKind kind) noexcept {
  return kind == DaemonEventKind::kHangRestart ? "hang" : "crash";
}

}  // namespace

std::string_view to_string(EpochVerdict verdict) noexcept {
  switch (verdict) {
    case EpochVerdict::kIntact: return "intact";
    case EpochVerdict::kViolated: return "violated";
    case EpochVerdict::kInconclusive: return "inconclusive";
    case EpochVerdict::kDegraded: return "degraded";
  }
  return "unknown";
}

std::string_view to_string(DaemonAlertKind kind) noexcept {
  switch (kind) {
    case DaemonAlertKind::kZoneViolated: return "zone_violated";
    case DaemonAlertKind::kZoneEscalated: return "zone_escalated";
    case DaemonAlertKind::kZoneQuarantined: return "zone_quarantined";
    case DaemonAlertKind::kZoneRecovered: return "zone_recovered";
    case DaemonAlertKind::kReplanned: return "replanned";
    case DaemonAlertKind::kStaleJournalQuarantined:
      return "stale_journal_quarantined";
    case DaemonAlertKind::kReaderQuarantined: return "reader_quarantined";
    case DaemonAlertKind::kReaderRecovered: return "reader_recovered";
  }
  return "unknown";
}

std::string_view to_string(DaemonEventKind kind) noexcept {
  switch (kind) {
    case DaemonEventKind::kCrashRestart: return "crash_restart";
    case DaemonEventKind::kHangRestart: return "hang_restart";
    case DaemonEventKind::kGaveUp: return "gave_up";
  }
  return "unknown";
}

std::string render_alert_history(std::span<const DaemonAlert> alerts) {
  std::string out;
  for (const DaemonAlert& alert : alerts) {
    out += '#';
    out += std::to_string(alert.sequence);
    out += " epoch ";
    out += std::to_string(alert.epoch);
    out += " [";
    out += to_string(alert.kind);
    out += "] zone ";
    out += std::to_string(alert.zone);
    out += ": ";
    out += alert.detail;
    out += '\n';
    // Named stolen tags (identification drill-down): part of the canonical
    // rendering, so kill-resume equivalence covers them too. Absent (and
    // the rendering byte-identical to older daemons') when the feature is
    // off or the alert predates it.
    for (const tag::TagId& id : alert.missing_tags) {
      out += "    missing ";
      out += id.to_string();
      out += '\n';
    }
  }
  return out;
}

MonitorDaemon::MonitorDaemon(DaemonConfig config, WarehouseConfig warehouse)
    : config_(std::move(config)), warehouse_(std::move(warehouse)) {
  RFID_EXPECT(config_.backend != nullptr, "daemon needs a storage backend");
  RFID_EXPECT(config_.epochs >= 1, "daemon needs at least one epoch");
  RFID_EXPECT(config_.debounce_epochs >= 1, "debounce_epochs must be >= 1");
  RFID_EXPECT(config_.quarantine_after_epochs >= config_.debounce_epochs,
              "quarantine must not precede escalation");
  RFID_EXPECT(config_.quarantine_cooldown_epochs >= 1,
              "quarantine_cooldown_epochs must be >= 1");
  RFID_EXPECT(warehouse_.initial_tags >= 1, "warehouse needs tags");
  // The population advances through the script in list order, so a
  // later-listed event of an earlier epoch would land after events it must
  // precede.
  RFID_EXPECT(std::ranges::is_sorted(warehouse_.churn, {}, &ChurnEvent::epoch),
              "churn events must be in epoch order");
  RFID_EXPECT(!config_.name.empty(), "daemon needs a name");
}

MonitorDaemon::~MonitorDaemon() = default;

std::uint64_t MonitorDaemon::config_fingerprint() const {
  // Everything that shapes epoch results and alert decisions. A resumed
  // journal whose recording daemon disagreed on any of these would replay
  // health machines for zones that no longer mean the same thing — it is
  // quarantined instead (same |1-vs-0 sentinel convention as the fleet's).
  std::uint64_t h = 0x6461656d6f6eULL;  // "daemon"
  h = util::derive_seed(h, warehouse_.initial_tags, warehouse_.tolerance);
  h = util::derive_seed(h, warehouse_.zone_capacity, warehouse_.rounds);
  h = util::derive_seed(h, static_cast<std::uint64_t>(warehouse_.protocol),
                        config_.max_zone_attempts);
  h = util::derive_seed(h, config_.debounce_epochs,
                        config_.quarantine_after_epochs);
  h = util::derive_seed(h, config_.quarantine_cooldown_epochs,
                        config_.faults_on_retries ? 1 : 0);
  for (const ChurnEvent& event : warehouse_.churn) {
    h = util::derive_seed(h, event.epoch, event.enroll);
    h = util::derive_seed(h, event.decommission, event.steal);
    h = util::derive_seed(h, event.steal_from, 1);
  }
  for (const WarehouseConfig::ZoneFault& zf : warehouse_.zone_faults) {
    h = util::derive_seed(h, zf.epoch, zf.zone);
  }
  const fusion::FusionConfig& fu = warehouse_.fusion;
  h = util::derive_seed(h, fu.readers, fu.quorum);
  h = util::derive_seed(h, fu.assumed_faulty, fu.suspect_after_rounds);
  h = util::derive_seed(h, std::bit_cast<std::uint64_t>(fu.slot_loss),
                        std::bit_cast<std::uint64_t>(fu.alert_budget));
  h = util::derive_seed(h, std::bit_cast<std::uint64_t>(fu.trust_decay),
                        std::bit_cast<std::uint64_t>(fu.min_trust));
  h = util::derive_seed(
      h, std::bit_cast<std::uint64_t>(fu.suspect_overruled), 2);
  for (const auto& [zone, reader] : warehouse_.dishonest_readers) {
    h = util::derive_seed(h, zone, reader);
  }
  // journal_rotate_after is deliberately absent: rotation changes the
  // journal's layout, never its replay, so a restart may change the knob
  // and still resume.
  return h | 1;
}

void MonitorDaemon::advance_population(std::uint64_t epoch) {
  // The population is a pure function of (seed, churn script, epoch): the
  // initial audit and every enrollment draw from seeds derived here, so a
  // resumed daemon re-derives tag-for-tag the population the crashed one
  // was monitoring. The first epoch of a monitor life draws the initial
  // audit and catches up on every earlier event; later epochs apply only
  // their own events to the tags they carry over.
  tag::TagSet initial;
  if (population_ == nullptr) {
    util::Rng rng(util::derive_seed(config_.seed, 0, kPopulationSalt));
    initial = tag::TagSet::make_random(warehouse_.initial_tags, rng);
    stolen_.clear();
    churn_applied_ = 0;
  }
  const tag::TagSet& current =
      population_ != nullptr ? population_->tags() : initial;

  // The next tag list, copied from the current one by the first event that
  // enrolls or retires tags. A theft changes only the stolen list.
  std::optional<std::vector<tag::Tag>> next;
  const auto size = [&] { return next ? next->size() : current.size(); };
  const auto edit = [&]() -> std::vector<tag::Tag>& {
    if (!next) next.emplace(current.tags().begin(), current.tags().end());
    return *next;
  };
  // All of one epoch's enrollments draw from that epoch's one stream, in
  // list order, so two enrollments of one epoch enroll different tags.
  std::optional<std::uint64_t> stream_epoch;
  util::Rng stream;
  const std::span<const ChurnEvent> churn = warehouse_.churn;
  for (; churn_applied_ < churn.size() && churn[churn_applied_].epoch <= epoch;
       ++churn_applied_) {
    const ChurnEvent& event = churn[churn_applied_];
    const std::uint64_t retire =
        std::min<std::uint64_t>(event.decommission, size());
    if (retire > 0) {
      std::vector<tag::Tag>& tags = edit();
      tags.erase(tags.begin(),
                 tags.begin() + static_cast<std::ptrdiff_t>(retire));
      stolen_.erase(stolen_.begin(), std::ranges::lower_bound(stolen_, retire));
      for (std::uint64_t& index : stolen_) index -= retire;
    }
    if (event.enroll > 0) {
      if (stream_epoch != event.epoch) {
        stream = util::Rng(
            util::derive_seed(config_.seed, event.epoch, kChurnSalt));
        stream_epoch = event.epoch;
      }
      const tag::TagSet fresh = tag::TagSet::make_random(
          static_cast<std::size_t>(event.enroll), stream);
      std::vector<tag::Tag>& tags = edit();
      tags.insert(tags.end(), fresh.tags().begin(), fresh.tags().end());
    }
    // Only [steal_from, min(steal_from + steal, size)) exists; the bound is
    // computed without overflow, so no script can wrap or spin.
    const std::uint64_t n = size();
    if (event.steal_from < n) {
      const std::uint64_t end =
          event.steal_from + std::min(event.steal, n - event.steal_from);
      std::vector<std::uint64_t> merged;
      merged.reserve(stolen_.size() + (end - event.steal_from));
      std::ranges::set_union(stolen_, std::views::iota(event.steal_from, end),
                             std::back_inserter(merged));
      stolen_ = std::move(merged);
    }
  }

  // Any enrollment or retirement moves zone membership, even when the
  // population size (and so the plan) stays: re-plan and re-prepare.
  if (next) {
    population_.reset();  // the tags are held once: by the prepared zones
    prepare_zones(tag::TagSet(std::move(*next)));
  } else if (population_ == nullptr) {
    prepare_zones(std::move(initial));
  }
}

void MonitorDaemon::prepare_zones(tag::TagSet tags) {
  // Re-plan so Σ m_i = M still covers whatever the population has become.
  // The tolerance clamps to keep the planner's M + zones <= N invariant
  // alive through heavy decommissioning (zones <= n, so nothing wraps).
  const std::uint64_t n = tags.size();
  RFID_EXPECT(n > 0, "churn script emptied the population");
  const std::uint64_t zones = server::zone_count(n, warehouse_.zone_capacity);
  const std::uint64_t tolerance = std::min(warehouse_.tolerance, n - zones);
  population_ = fleet::PreparedPopulation::prepare(
      std::move(tags),
      server::plan_groups({.total_tags = n,
                           .total_tolerance = tolerance,
                           .alpha = warehouse_.alpha,
                           .max_group_size = warehouse_.zone_capacity,
                           .model = warehouse_.model}));
}

void MonitorDaemon::resume_from_journal(DaemonResult& result) {
  const auto t0 = std::chrono::steady_clock::now();
  const storage::DaemonStartRecord start{config_.seed, config_.name,
                                         config_fingerprint()};
  const storage::DaemonReplay replay = journal_->open(start);

  // The journal's folded image (O(1) in the daemon's lifetime once rotation
  // is on) is the daemon's state: after a crash it is in exactly the state
  // the journal proves, nothing more.
  const storage::DaemonSnapshotRecord& state = journal_->state();
  pending_alerts_.clear();
  const std::uint64_t restored = state.alerts.size();
  epochs_committed_.store(state.verdicts.size(), std::memory_order_release);

  if (replay.stale) {
    // The refusal itself must reach the operator — but an alert is only
    // durable inside a checkpoint, so park it for the next epoch's record.
    storage::DaemonAlertRecord pending;
    pending.kind =
        static_cast<std::uint8_t>(DaemonAlertKind::kStaleJournalQuarantined);
    pending.detail =
        std::to_string(replay.stale_checkpoints) +
        " checkpointed epoch(s) from a different monitoring config were "
        "quarantined; monitoring restarts at epoch 0";
    pending_alerts_.push_back(std::move(pending));
  }

  result.replayed_alerts += restored;
  const double resume_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  result.last_resume_us = resume_us;
  if (config_.metrics != nullptr) {
    if (restored > 0) {
      obs::catalog::daemon_replayed_alerts_total(*config_.metrics)
          .inc(restored);
    }
    obs::catalog::daemon_resume_duration_us(*config_.metrics)
        .observe(resume_us);
  }
}

void MonitorDaemon::run_epoch(std::uint64_t epoch,
                              const std::stop_token& stop) {
  if (stop.stop_requested()) {
    throw fault::CrashInjected("monitor killed before epoch " +
                               std::to_string(epoch));
  }
  fault::DaemonFaultInjector* faults = config_.faults;
  if (faults != nullptr) {
    faults->at(epoch, fault::DaemonCrashPoint::kEpochStart);
    faults->maybe_hang(epoch, stop);
  }
  // Read before checkpoint(), which folds this epoch into it.
  const storage::DaemonSnapshotRecord& state = journal_->state();

  // Re-audit: apply this epoch's churn, re-preparing the zones only if it
  // moved membership.
  advance_population(epoch);
  const std::size_t zone_count = population_->zones().size();

  fleet::InventorySpec spec;
  spec.name = "warehouse";
  spec.protocol = warehouse_.protocol;
  spec.stolen = stolen_;
  spec.alpha = warehouse_.alpha;
  spec.model = warehouse_.model;
  spec.comm_budget = warehouse_.comm_budget;
  spec.slack_slots = warehouse_.slack_slots;
  spec.rounds = warehouse_.rounds;
  spec.session = warehouse_.session;
  for (const WarehouseConfig::ZoneFault& zf : warehouse_.zone_faults) {
    if (zf.epoch == epoch && zf.zone < zone_count) {
      spec.zone_faults.emplace_back(zf.zone, zf.plan);
    }
  }
  spec.fusion = warehouse_.fusion;
  spec.identify = warehouse_.identify;
  // A zone whose violated latch is set raises no alert this epoch, so its
  // campaign's names would be discarded. A replan resets the latches, so
  // the list holds only while the zones still match the health machines.
  spec.identify.skip_zones.clear();
  if (state.zones.size() == zone_count) {
    for (std::size_t z = 0; z < zone_count; ++z) {
      if (state.zones[z].violated) spec.identify.skip_zones.push_back(z);
    }
  }
  const std::uint32_t k = warehouse_.fusion.readers;
  for (const auto& [zone, reader] : warehouse_.dishonest_readers) {
    if (zone < zone_count && reader < k) {
      spec.dishonest_readers.emplace_back(zone, reader);
    }
  }
  if (k > 1) {
    // Quarantined readers sit out the scan entirely — no evidence, no
    // vote, no chance to poison the fusion while on the bench.
    for (std::size_t z = 0; z < std::min<std::size_t>(state.zones.size(),
                                                      zone_count); ++z) {
      for (std::size_t r = 0; r < state.zones[z].readers.size(); ++r) {
        if (state.zones[z].readers[r].quarantined) {
          spec.excluded_readers.emplace_back(z,
                                             static_cast<std::uint32_t>(r));
        }
      }
    }
  }

  fleet::FleetConfig fleet_config;
  fleet_config.seed = util::derive_seed(config_.seed, epoch + 1, kEpochSalt);
  fleet_config.threads = config_.threads;
  fleet_config.max_zone_attempts = config_.max_zone_attempts;
  fleet_config.faults_on_retries = config_.faults_on_retries;
  fleet_config.fleet_name = config_.name + "/epoch-" + std::to_string(epoch);
  fleet_config.journal_backend = config_.backend;
  fleet_config.journal_name = config_.fleet_journal_name;
  fleet_config.abort = stop;

  fleet::FleetOrchestrator orchestrator(std::move(fleet_config));
  orchestrator.submit(std::move(spec), population_);
  fleet::FleetResult fleet_result = orchestrator.run();

  if (faults != nullptr) {
    faults->at(epoch, fault::DaemonCrashPoint::kAfterFleetRun);
  }
  if (fleet_result.aborted) {
    // The life's stop was requested mid-run; unwind as the crash the
    // supervisor is already expecting. Nothing was journaled for this
    // epoch, so the restart re-runs it (resuming finished zones from the
    // fleet journal).
    throw fault::CrashInjected("epoch " + std::to_string(epoch) +
                               " aborted by supervisor");
  }

  // ---- decide (on copies: the state moves only with the checkpoint) ----
  const std::vector<fleet::ZoneReport>& reports =
      fleet_result.inventories.at(0).zones;
  std::vector<storage::DaemonZoneHealthRecord> healths = state.zones;
  std::vector<storage::DaemonAlertRecord> raised;
  std::uint64_t sequence = state.next_alert_sequence;
  const auto raise = [&](DaemonAlertKind kind, std::uint64_t zone,
                         std::string detail) {
    storage::DaemonAlertRecord alert;
    alert.sequence = sequence++;
    alert.kind = static_cast<std::uint8_t>(kind);
    alert.epoch = epoch;
    alert.zone = zone;
    alert.detail = std::move(detail);
    raised.push_back(std::move(alert));
  };

  for (const storage::DaemonAlertRecord& pending : pending_alerts_) {
    raise(static_cast<DaemonAlertKind>(pending.kind), pending.zone,
          pending.detail);
  }
  for (const fleet::FleetAlert& alert : fleet_result.alerts) {
    if (alert.kind == fleet::AlertKind::kRecoveredRunQuarantined) {
      raise(DaemonAlertKind::kStaleJournalQuarantined, 0,
            "fleet journal: " + alert.detail);
    }
  }
  if (!healths.empty() && healths.size() != zone_count) {
    raise(DaemonAlertKind::kReplanned, 0,
          "zone count changed from " + std::to_string(healths.size()) +
              " to " + std::to_string(zone_count) +
              "; zone health machines reset");
    healths.clear();
  }
  healths.resize(zone_count);

  bool theft = false;
  bool healthy_miss = false;
  bool quarantined_miss = false;
  std::uint64_t readers_quarantined = 0;
  for (std::size_t z = 0; z < zone_count; ++z) {
    const fleet::ZoneReport& report = reports[z];
    storage::DaemonZoneHealthRecord& health = healths[z];
    const bool was_quarantined = health.quarantined;

    // Reader tier first: a zone can verify intact while one reader inside
    // it is being persistently outvoted — exactly the adversary the bench
    // exists for. A reader suspect (or incomplete) quarantine_after_epochs
    // epochs in a row sits out subsequent scans; after the cooldown it is
    // reinstated (benched readers produce no evidence to re-judge them by,
    // so parole is the only way back). The last active reader is never
    // benched — a zone must keep at least one working radio.
    if (k > 1) {
      health.readers.resize(k);
      std::uint32_t active = 0;
      for (const storage::DaemonReaderHealthRecord& rh : health.readers) {
        if (!rh.quarantined) ++active;
      }
      for (std::uint32_t r = 0; r < k; ++r) {
        storage::DaemonReaderHealthRecord& rh = health.readers[r];
        if (rh.quarantined) {
          if (epoch - rh.quarantined_at >=
              config_.quarantine_cooldown_epochs) {
            raise(DaemonAlertKind::kReaderRecovered, z,
                  "reader " + std::to_string(r) +
                      " reinstated; quarantined since epoch " +
                      std::to_string(rh.quarantined_at));
            rh = storage::DaemonReaderHealthRecord{};
            ++active;
          }
          continue;
        }
        const bool bad =
            r < report.readers.size() &&
            (report.readers[r].suspect || !report.readers[r].completed);
        if (bad) {
          ++rh.bad_streak;
        } else {
          rh.bad_streak = 0;
        }
        if (rh.bad_streak >= config_.quarantine_after_epochs && active > 1) {
          rh.quarantined = true;
          rh.quarantined_at = epoch;
          --active;
          ++readers_quarantined;
          raise(DaemonAlertKind::kReaderQuarantined, z,
                "reader " + std::to_string(r) + " suspect or incomplete " +
                    std::to_string(rh.bad_streak) +
                    " consecutive epoch(s); excluded from scans until "
                    "cooldown");
        }
      }
    }

    if (report.status == fleet::ZoneStatus::kIntact) {
      health.miss_streak = 0;
      if (health.quarantined) {
        ++health.intact_streak;
        if (health.intact_streak >= config_.quarantine_cooldown_epochs) {
          raise(DaemonAlertKind::kZoneRecovered, z,
                "recovered after " + std::to_string(health.intact_streak) +
                    " intact epoch(s); quarantined since epoch " +
                    std::to_string(health.quarantined_at));
          // Zone forgiveness must not reinstate benched readers: the
          // reader tier keeps its own clock.
          std::vector<storage::DaemonReaderHealthRecord> readers =
              std::move(health.readers);
          health = storage::DaemonZoneHealthRecord{};
          health.readers = std::move(readers);
        }
      } else {
        health.intact_streak = 0;
        health.violated = false;  // incident over; a new one re-alerts
      }
      continue;
    }
    if (report.status == fleet::ZoneStatus::kDegraded) {
      // Rounds committed below the q-of-k quorum but no committed round
      // showed theft: evidence exists (not a miss — the zone machine holds
      // where it is), yet the guarantee stands on fewer readers than
      // configured, so the epoch verdict degrades.
      health.intact_streak = 0;
      quarantined_miss = true;
      continue;
    }

    health.intact_streak = 0;
    ++health.miss_streak;
    if (report.status == fleet::ZoneStatus::kViolated) {
      theft = true;
      if (!health.violated) {
        health.violated = true;
        const fleet::ZoneIdentification& id = report.identification;
        std::string detail = "theft evidence: zone verdict violated";
        if (id.ran) {
          detail += "; identified " + std::to_string(id.missing.size()) +
                    " missing tag(s) [" + id.protocol + "], " +
                    std::to_string(id.unresolved) + " unresolved";
        }
        raise(DaemonAlertKind::kZoneViolated, z, std::move(detail));
        if (id.ran) raised.back().missing = id.missing;
      }
    } else if (was_quarantined) {
      quarantined_miss = true;
    } else {
      healthy_miss = true;
    }
    if (health.miss_streak == config_.debounce_epochs) {
      raise(DaemonAlertKind::kZoneEscalated, z,
            "missed " + std::to_string(health.miss_streak) +
                " consecutive epoch(s); last failure: " +
                std::string(wire::to_string(report.last_failure)));
    }
    if (!health.quarantined &&
        health.miss_streak >= config_.quarantine_after_epochs) {
      health.quarantined = true;
      health.quarantined_at = epoch;
      raise(DaemonAlertKind::kZoneQuarantined, z,
            "quarantined after " + std::to_string(health.miss_streak) +
                " consecutive misses; failures now degrade (not void) the "
                "epoch verdict");
    }
  }

  const EpochVerdict verdict = theft            ? EpochVerdict::kViolated
                               : healthy_miss   ? EpochVerdict::kInconclusive
                               : quarantined_miss ? EpochVerdict::kDegraded
                                                  : EpochVerdict::kIntact;

  const std::size_t raised_count = raised.size();
  storage::DaemonCheckpointRecord record;
  record.epoch = epoch;
  record.verdict = static_cast<std::uint8_t>(verdict);
  record.next_alert_sequence = sequence;
  record.zones = std::move(healths);
  record.alerts = std::move(raised);

  if (faults != nullptr) {
    faults->at(epoch, fault::DaemonCrashPoint::kBeforeCheckpoint);
  }
  // ---- commit: the checkpoint folds the epoch into the state ----
  journal_->checkpoint(std::move(record));
  if (faults != nullptr) {
    faults->at(epoch, fault::DaemonCrashPoint::kAfterCheckpoint);
  }
  pending_alerts_.clear();
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    obs::catalog::daemon_epochs_total(m, to_string(verdict)).inc();
    obs::catalog::daemon_checkpoints_total(m).inc();
    for (const storage::DaemonAlertRecord& alert :
         std::span(state.alerts).last(raised_count)) {
      obs::catalog::daemon_alerts_total(
          m, to_string(static_cast<DaemonAlertKind>(alert.kind)))
          .inc();
    }
    if (readers_quarantined > 0) {
      obs::catalog::fusion_readers_quarantined_total(m).inc(
          readers_quarantined);
    }
  }
  epochs_committed_.store(epoch + 1, std::memory_order_release);
  {
    // Empty critical section: pairs the progress publication with the
    // watchdog's predicate re-check so the notify cannot race past it.
    const std::lock_guard<std::mutex> lock(wd_mu_);
  }
  wd_cv_.notify_all();
}

void MonitorDaemon::monitor_main(const std::stop_token& stop) {
  try {
    while (epochs_committed_.load(std::memory_order_acquire) <
           config_.epochs) {
      run_epoch(epochs_committed_.load(std::memory_order_acquire), stop);
    }
  } catch (...) {
    monitor_error_ = std::current_exception();
  }
  // The warehouse lives as long as this monitor life: the next life
  // derives it afresh, from the first epoch its journal has not proven.
  population_.reset();
  {
    const std::lock_guard<std::mutex> lock(wd_mu_);
    monitor_done_ = true;
  }
  wd_cv_.notify_all();
}

bool MonitorDaemon::supervise(std::stop_source& life) {
  const auto hang = std::chrono::milliseconds(config_.hang_timeout_ms);
  std::unique_lock<std::mutex> lock(wd_mu_);
  std::uint64_t last = epochs_committed_.load(std::memory_order_acquire);
  bool hung = false;
  // Wakes on a checkpoint, the monitor's end, or the life's stop, which
  // only the relay can request while the supervisor waits.
  const auto woken = [&] {
    return monitor_done_ || life.stop_requested() ||
           epochs_committed_.load(std::memory_order_acquire) != last;
  };
  while (!monitor_done_ && !life.stop_requested()) {
    if (wd_cv_.wait_for(lock, hang, woken)) {
      last = epochs_committed_.load(std::memory_order_acquire);
      continue;
    }
    // The progress deadline passed with no checkpoint: the monitor is
    // wedged. Its stop drains the fleet run and wakes a scripted hang.
    hung = true;
    life.request_stop();
  }
  wd_cv_.wait(lock, [this] { return monitor_done_; });
  return hung;
}

DaemonResult MonitorDaemon::run() {
  RFID_EXPECT(!ran_, "run() may only be called once");
  ran_ = true;

  journal_ = std::make_unique<storage::DaemonJournal>(
      *config_.backend, config_.journal_name, config_.journal_rotate_after);
  DaemonResult result;
  std::uint64_t backoff_ms = config_.backoff_initial_ms;

  // Books one supervised death (crash or hang), applies backoff, and
  // reports whether the daemon may try again.
  const auto register_restart = [&](DaemonEventKind cause) -> bool {
    result.events.push_back(
        DaemonEvent{cause, journal_->state().verdicts.size()});
    ++result.restarts;
    if (cause == DaemonEventKind::kHangRestart) {
      ++result.hang_restarts;
    } else {
      ++result.crash_restarts;
    }
    if (config_.metrics != nullptr) {
      obs::catalog::daemon_restarts_total(*config_.metrics,
                                          restart_cause(cause))
          .inc();
    }
    if (result.restarts > config_.max_restarts) {
      result.gave_up = true;
      result.events.push_back(DaemonEvent{DaemonEventKind::kGaveUp,
                                          journal_->state().verdicts.size()});
      return false;
    }
    if (config_.crash_hook) config_.crash_hook();
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    backoff_ms = std::min(std::max<std::uint64_t>(backoff_ms, 1) * 2,
                          std::max<std::uint64_t>(config_.backoff_cap_ms, 1));
    return true;
  };

  for (bool alive = true; alive;) {
    // Resume is itself under supervision: a crash while opening or
    // compacting the journal is still the process dying, and the next life
    // starts from whatever the backend durably holds.
    try {
      resume_from_journal(result);
    } catch (const fault::CrashInjected&) {
      alive = register_restart(DaemonEventKind::kCrashRestart);
      continue;
    }
    if (epochs_committed_.load(std::memory_order_acquire) >= config_.epochs) {
      break;
    }

    // One stop per life, requested only under wd_mu_ (the supervisor's
    // predicate reads it). The relay passes an external stop on to it and
    // wakes the supervisor; it is declared after the source it requests,
    // so it is gone before the source.
    std::stop_source life;
    const std::stop_callback relay(config_.abort, [&] {
      const std::lock_guard<std::mutex> lock(wd_mu_);
      life.request_stop();
      wd_cv_.notify_all();
    });
    {
      const std::lock_guard<std::mutex> lock(wd_mu_);
      monitor_done_ = false;
    }
    monitor_error_ = nullptr;
    std::thread monitor(
        [this, stop = life.get_token()] { monitor_main(stop); });
    const bool hung = supervise(life);
    monitor.join();

    if (monitor_error_ == nullptr) break;  // all epochs checkpointed
    try {
      std::rethrow_exception(monitor_error_);
    } catch (const fault::CrashInjected&) {
      // The supervised failure mode; fall through to the restart path.
      // Anything else is a genuine bug and propagates to the caller.
    }
    if (config_.abort.stop_requested()) {
      // Externally stopped: give up instead of restarting. Checkpointed
      // epochs are durable; a later daemon resumes from them as usual.
      result.gave_up = true;
      result.events.push_back(DaemonEvent{DaemonEventKind::kGaveUp,
                                          journal_->state().verdicts.size()});
      break;
    }
    alive = register_restart(hung ? DaemonEventKind::kHangRestart
                                  : DaemonEventKind::kCrashRestart);
  }

  const storage::DaemonSnapshotRecord& state = journal_->state();
  result.epochs_completed = state.verdicts.size();
  result.epoch_verdicts.reserve(state.verdicts.size());
  for (const std::uint8_t verdict : state.verdicts) {
    result.epoch_verdicts.push_back(static_cast<EpochVerdict>(verdict));
  }
  result.alerts.reserve(state.alerts.size());
  for (const storage::DaemonAlertRecord& alert : state.alerts) {
    result.alerts.push_back(
        DaemonAlert{alert.sequence,
                    static_cast<DaemonAlertKind>(alert.kind), alert.epoch,
                    alert.zone, alert.detail, alert.missing});
  }
  result.journal_append_failures = journal_->append_failures();
  return result;
}

}  // namespace rfid::daemon
