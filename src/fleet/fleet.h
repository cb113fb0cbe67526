// Fleet orchestration: concurrent multi-zone monitoring with deadline
// scheduling and global verdict aggregation.
//
// The group planner (server/group_planner.h) shards one inventory into
// zones whose tolerances sum to the global M; the wire layer runs one
// monitoring session per zone. This subsystem closes the loop at warehouse
// scale: a FleetOrchestrator takes one InventorySpec per inventory, executes
// every zone's session from an earliest-deadline-first task pool
// (FleetScheduler) drained by run()'s calling thread and threads - 1
// helpers, retries zones that failed for retryable infrastructure
// reasons on healthy capacity (capped attempts), escalates permanent
// failures as fleet alerts, and folds the per-zone outcomes into one global
// verdict:
//
//   * kViolated      — some zone produced a non-intact (or late, for UTRP)
//                      verdict in any attempt. Theft evidence outranks
//                      infrastructure failure.
//   * kInconclusive  — no violation seen, but some zone never completed a
//                      session (retries exhausted), so the pigeonhole
//                      argument over Sigma m_i = M does not close.
//   * kIntact        — every zone completed and verified intact; more than
//                      M missing tags overall would have tripped at least
//                      one zone with probability > alpha.
//
// Admission control: admission_capacity bounds how many zones run in one
// wave. Saturated submissions are either deferred to a later wave (FIFO,
// an oversized inventory gets a wave of its own) or rejected outright —
// rejected inventories are excluded from the verdict and surfaced as
// alerts, never silently dropped.
//
// Determinism contract (the TrialRunner discipline): every zone attempt
// gets a private virtual-time EventQueue and derives its RNG from
// (fleet seed, inventory name, zone, attempt) — never from thread identity
// or wall-clock order. A fused reader (k > 1) derives its RNG from that
// seed and (reader + 1, a reader salt); the fused challenge stream every
// reader answers derives from (fleet seed, inventory name, zone) and a
// challenge salt, without the attempt. Zone sessions run with all
// observability hooks detached; the orchestrator re-records metrics, spans
// (fleet -> inventory -> zone -> session), and SessionLog entries after the
// pool drains, single-threaded, in (inventory, zone, reader, attempt)
// order. A seeded fleet is therefore bit-identical — aggregated verdicts,
// metric exposition, session logs, summary() text — on 1 thread or 64
// (tests/fleet_determinism_test.cpp pins this down).
//
// Durability: with a journal backend attached, every terminal zone outcome
// is appended to a FleetJournal (storage/fleet_journal.h). Because zone
// results are pure functions of the seed, a crashed orchestrator that
// restarts with the same (seed, fleet, specs) reuses journaled zones
// instead of re-running them.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <memory>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fusion/fusion.h"
#include "math/detection.h"
#include "obs/metrics.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "protocol/identification.h"
#include "server/group_planner.h"
#include "storage/backend.h"
#include "storage/fleet_journal.h"
#include "tag/tag_set.h"
#include "wire/session.h"

namespace rfid::fleet {

enum class Protocol : std::uint8_t { kTrp = 0, kUtrp = 1 };

/// Terminal state of one zone after capped attempts.
enum class ZoneStatus : std::uint8_t {
  kIntact = 0,    // completed; every round verified intact
  kViolated = 1,  // some round mismatched or missed the Alg. 5 deadline
  kFailed = 2,    // never completed a session (escalated as an alert)
  /// Fused zones only: no violation seen, but some round committed below
  /// the completion quorum (or not at all), so the pigeonhole guarantee
  /// holds at reduced confidence. Aggregates as inconclusive — never
  /// silently voided, never promoted to intact.
  kDegraded = 3,
};

enum class GlobalVerdict : std::uint8_t {
  kIntact = 0,
  kViolated = 1,
  kInconclusive = 2,
};

/// What happened to an inventory at submit().
enum class Admission : std::uint8_t {
  kAccepted = 0,  // runs in the first wave
  kDeferred = 1,  // capacity-saturated; runs in a later wave
  kRejected = 2,  // capacity-saturated and deferral disabled; not monitored
};

enum class AlertKind : std::uint8_t {
  kZoneEscalated = 0,      // a zone exhausted its attempts without completing
  kInventoryRejected = 1,  // an inventory was refused admission
  /// An interrupted run was found in the journal but its recorded config
  /// fingerprint (zone counts / tolerances) no longer matches the current
  /// plan. Its zone records are quarantined — never folded into this run —
  /// and every zone re-executes.
  kRecoveredRunQuarantined = 2,
  /// A fused zone committed below its completion quorum (ZoneStatus::
  /// kDegraded): the verdict stands on fewer readers than configured.
  kZoneDegraded = 3,
};

[[nodiscard]] std::string_view to_string(Protocol protocol) noexcept;
[[nodiscard]] std::string_view to_string(ZoneStatus status) noexcept;
[[nodiscard]] std::string_view to_string(GlobalVerdict verdict) noexcept;
[[nodiscard]] std::string_view to_string(Admission admission) noexcept;
[[nodiscard]] std::string_view to_string(AlertKind kind) noexcept;

struct FleetConfig {
  std::uint64_t seed = 1;
  /// Threads that run zone sessions, run()'s caller included (1 starts no
  /// thread); 0 = hardware concurrency. Never affects results.
  unsigned threads = 0;
  /// Attempt cap per zone (first try + retries). Must be >= 1.
  std::uint32_t max_zone_attempts = 3;
  /// Max zones in flight per wave; 0 = unlimited (everything is wave 0).
  std::uint64_t admission_capacity = 0;
  /// Saturated submissions: true defers to a later wave, false rejects.
  bool defer_when_saturated = true;
  /// Replay an attempt-0 fault plan on retries too. Off by default: the
  /// plans model transient outages, and a retry on healthy capacity is
  /// exactly the recovery story being tested.
  bool faults_on_retries = false;
  std::string fleet_name = "fleet";
  /// Observability sinks (none owned; each must outlive run()). All
  /// recording happens post-run on the caller's thread, in deterministic
  /// order — the tracer's documented non-thread-safety is fine here.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::SessionLog* session_log = nullptr;
  /// Durable fleet-run journal (not owned; may be null for no durability).
  storage::StorageBackend* journal_backend = nullptr;
  std::string journal_name = "fleet.journal";
  /// Cooperative kill switch (the default token never stops). Once a stop
  /// is requested, every attempt that has not started returns at once,
  /// in-flight zones finish, later waves never start, and run() returns
  /// early with FleetResult::aborted set — no end record is journaled, so a
  /// restart resumes the run. This is how a daemon's supervisor or a
  /// service drain stops a run.
  std::stop_token abort{};
};

/// Identification drill-down policy: after a zone's verdict comes back
/// kViolated, run a missing-tag identification campaign over that zone's
/// enrolled slice so the escalation names the stolen tags instead of just
/// flagging the zone. Runs as a deterministic sequential post-pass (RNG
/// derived from the fleet seed, independent of thread count and of whether
/// the zone was recovered from a journal).
struct IdentifyDrillConfig {
  bool enabled = false;
  protocol::IdentifyProtocolKind protocol =
      protocol::IdentifyProtocolKind::kFilterFirst;
  /// Zones whose violated verdict needs no campaign: their report keeps
  /// identification.ran == false and every other field. Each index must be
  /// below the zone count. The daemon fills it each epoch with the zones
  /// whose theft alert it already raised, since it would discard their
  /// names.
  std::vector<std::uint64_t> skip_zones;
};

/// An inventory's immutable run state, built once and shared read-only by
/// every run over it: the enrolled population in zone order, its plan, and
/// each zone's columnar server state (slot words derived once, here). The
/// paper's server owns a static T* and only the challenge is fresh per
/// round; likewise a run borrows its zones from here instead of copying
/// them (see FleetOrchestrator::submit).
class PreparedPopulation {
 public:
  /// Columnarizes `tags` zone by zone: zone i covers the next
  /// plan.zones[i].tags tags (split_by_plan's slicing). Requires a plan
  /// with zones whose sizes sum to the population size.
  [[nodiscard]] static std::shared_ptr<const PreparedPopulation> prepare(
      tag::TagSet tags, server::GroupPlan plan);

  [[nodiscard]] const tag::TagSet& tags() const noexcept { return tags_; }
  [[nodiscard]] const server::GroupPlan& plan() const noexcept {
    return plan_;
  }
  /// Zone i's slice as server state: ids, slot words, counters at enrollment.
  [[nodiscard]] std::span<const tag::ColumnarTagSet> zones() const noexcept {
    return zones_;
  }

 private:
  PreparedPopulation() = default;

  tag::TagSet tags_;
  server::GroupPlan plan_;
  std::vector<tag::ColumnarTagSet> zones_;
};

/// One inventory: everything needed to run its zones over a population.
/// The spec owns its fault plans; the orchestrator keeps the spec alive for
/// the whole run.
struct InventorySpec {
  std::string name;  // stable across restarts (keys the journal)
  Protocol protocol = Protocol::kTrp;
  /// Input of the one-shot submit(InventorySpec) only, which moves both
  /// into a fresh PreparedPopulation: the enrolled population, in zone
  /// order, and its plan. A spec submitted with a prepared population
  /// leaves both empty; the population carries them.
  tag::TagSet tags;
  server::GroupPlan plan;
  /// Global indices into the population that are physically absent (stolen).
  std::vector<std::uint64_t> stolen;
  double alpha = 0.95;
  math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox;
  /// UTRP only: Eq. (3) adversary communication budget and frame slack.
  std::uint64_t comm_budget = 100;
  std::uint32_t slack_slots = 8;
  std::uint64_t rounds = 1;  // monitoring rounds per zone session
  /// Session template. Observability hooks and the fault plan are
  /// overridden per zone; everything else (links, retry policy, timing,
  /// UTRP deadline) applies to every zone of this inventory.
  wire::SessionConfig session;
  /// Sparse per-zone fault scripts, applied on attempt 0 (and on retries
  /// iff FleetConfig::faults_on_retries). A plain FaultPlan converts
  /// implicitly ("same script for every reader"); multi-reader scripts can
  /// address readers individually and correlate burst loss across them.
  std::vector<std::pair<std::uint64_t, fault::MultiReaderFaultPlan>>
      zone_faults;
  /// Reader redundancy: fusion.readers > 1 runs k concurrent sessions per
  /// zone against one precomputed challenge stream, fuses their bitstrings
  /// per slot, and takes the pigeonhole verdict on the fused evidence
  /// (TRP only — a UTRP scan advances tag counters, so k simultaneous
  /// scans of one zone are physically inconsistent).
  fusion::FusionConfig fusion;
  /// (zone, reader) pairs that behave adversarially: instead of scanning,
  /// the reader forges the expected bitstring of the full enrolled set —
  /// the split-attack reader of src/attack hiding a theft.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> dishonest_readers;
  /// (zone, reader) pairs excluded from the run (e.g. quarantined by the
  /// daemon's per-reader health tier): no session, no vote. The zone still
  /// runs with its remaining readers and degrades below quorum.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> excluded_readers;
  /// Post-verdict identification drill-down for violated zones.
  IdentifyDrillConfig identify;
};

/// Per-reader outcome inside a fused zone (ZoneReport::readers, k > 1).
struct ReaderReport {
  std::uint32_t reader = 0;
  bool completed = false;  // last attempt finished every round
  wire::FailureReason last_failure = wire::FailureReason::kNone;
  std::uint32_t attempts = 0;
  bool excluded = false;  // never ran (quarantined at submit)
  bool suspect = false;   // persistently outvoted or phantom evidence
  double trust = 1.0;     // final fusion weight
  std::uint64_t votes_overruled = 0;

  bool operator==(const ReaderReport&) const = default;
};

/// Outcome of the post-verdict identification drill-down on one violated
/// zone (ZoneReport::identification; `ran` false when the drill-down was
/// disabled or the zone was not violated).
struct ZoneIdentification {
  bool ran = false;
  std::string protocol;  // family member name ("iterative", "filter_first")
  std::vector<tag::TagId> missing;  // the named stolen tags
  std::uint64_t present = 0;        // tags proven present
  std::uint64_t unresolved = 0;     // round cap hit before classification
  std::uint64_t rounds = 0;
  std::uint64_t slots = 0;          // framed slots + tree queries
  std::uint64_t tree_queries = 0;
  std::uint64_t filter_bits = 0;
  double estimated_missing = 0.0;   // zero-estimator after the first frame
  double duration_us = 0.0;         // honest air time of the campaign

  bool operator==(const ZoneIdentification&) const = default;
};

struct ZoneReport {
  std::uint64_t zone = 0;
  ZoneStatus status = ZoneStatus::kFailed;
  wire::FailureReason last_failure = wire::FailureReason::kNone;
  std::uint32_t attempts = 0;  // session attempts executed (>= 1 unless recovered)
  bool resynced = false;   // UTRP mirror rebuilt from audit before a retry
  bool recovered = false;  // reused from an interrupted run's journal
  // Round accounting from the final attempt; frame counters are summed
  // across attempts (total backhaul cost of the zone).
  std::uint64_t rounds_completed = 0;
  std::uint64_t intact_rounds = 0;
  std::uint64_t mismatched_rounds = 0;
  std::uint64_t deadline_missed_rounds = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t retransmissions = 0;
  double duration_us = 0.0;  // simulated time of the final attempt
  // Fused zones (k > 1) only; all empty/zero for single-reader zones.
  std::vector<ReaderReport> readers;
  std::uint64_t degraded_rounds = 0;  // committed below quorum (no verdict)
  std::uint64_t fused_slots = 0;      // slots put through the majority vote
  std::uint64_t phantom_votes = 0;    // busy votes the fusion overruled
  std::uint64_t missed_votes = 0;     // empty votes the fusion overruled
  /// Post-verdict identification drill-down (violated zones only).
  ZoneIdentification identification;

  bool operator==(const ZoneReport&) const = default;
};

struct InventoryReport {
  std::string name;
  Protocol protocol = Protocol::kTrp;
  GlobalVerdict verdict = GlobalVerdict::kInconclusive;
  std::vector<ZoneReport> zones;
  std::uint64_t tags = 0;
  std::uint64_t tolerance = 0;  // Sigma m_i == M
  double worst_zone_detection = 0.0;
  std::uint64_t wave = 0;  // admission wave it ran in
};

struct FleetAlert {
  AlertKind kind = AlertKind::kZoneEscalated;
  std::string inventory;
  std::uint64_t zone = 0;  // meaningful for kZoneEscalated
  std::string detail;
};

struct FleetResult {
  GlobalVerdict verdict = GlobalVerdict::kIntact;
  std::vector<InventoryReport> inventories;  // monitored, submission order
  std::vector<std::string> rejected;         // refused admission
  std::vector<FleetAlert> alerts;
  std::uint64_t zones = 0;            // zones monitored (recovered included)
  std::uint64_t attempts = 0;         // session attempts executed this run
  std::uint64_t requeues = 0;         // retryable failures put back on the pool
  std::uint64_t escalations = 0;      // zones that ended kFailed
  std::uint64_t resyncs = 0;          // UTRP mirrors re-audited before a retry
  std::uint64_t zones_recovered = 0;  // reused from the journal
  std::uint64_t degraded_zones = 0;   // fused zones committed below quorum
  std::uint64_t readers_suspected = 0;  // across all fused zones
  std::uint64_t zones_identified = 0;  // violated zones drilled down
  std::uint64_t tags_named = 0;        // stolen tags named by drill-downs
  std::uint64_t deferred_inventories = 0;
  std::uint64_t waves = 1;
  /// FleetConfig::abort was stopped (or a zone task threw): zones that
  /// never ran are reported kFailed/kCrashed, no end record was journaled,
  /// and the verdict is at best inconclusive. A restart resumes from the
  /// journal.
  bool aborted = false;
  /// FleetConfig::threads resolved: the caller plus its helpers. Excluded
  /// from summary(), which reads the same at any thread count.
  unsigned threads = 0;
};

/// Deterministic human-readable rendering of a result (verdict, per-
/// inventory lines, totals, alerts). Bit-identical across thread counts;
/// the thread count is deliberately left out.
[[nodiscard]] std::string summary(const FleetResult& result);

class FleetOrchestrator {
 public:
  explicit FleetOrchestrator(FleetConfig config);
  ~FleetOrchestrator();

  FleetOrchestrator(const FleetOrchestrator&) = delete;
  FleetOrchestrator& operator=(const FleetOrchestrator&) = delete;

  /// Admits an inventory over a prepared population (or defers/rejects it
  /// under saturation). UTRP and fused zones are sized here, so an
  /// unsatisfiable spec throws before any worker runs. Zones borrow the
  /// population: each zone server shares its columnar slice, and a TRP zone
  /// with nothing stolen reads its present tags straight from the shared
  /// population. Only a zone with stolen tags (a filtered copy) or a UTRP
  /// zone (whose counters advance) owns per-run tags. `spec.tags` and
  /// `spec.plan` must be empty. Must not be called after run().
  Admission submit(InventorySpec spec,
                   std::shared_ptr<const PreparedPopulation> population);

  /// One-shot adapter: prepares a population from `spec.tags` and
  /// `spec.plan`, then submits it as above.
  Admission submit(InventorySpec spec);

  /// Executes every admitted zone and aggregates. Call once.
  [[nodiscard]] FleetResult run();

 private:
  struct ZoneState;
  struct Inventory;

  // One attempt of one zone reader (a plain zone is reader 0 of k = 1).
  void run_attempt(std::size_t inv, std::size_t zone, std::uint32_t reader,
                   std::uint32_t attempt);
  void run_attempt_body(std::size_t inv, std::size_t zone,
                        std::uint32_t reader, std::uint32_t attempt);
  void finalize_zone(std::size_t inv, std::size_t zone);
  void journal_zone(std::size_t inv, std::size_t zone);
  [[nodiscard]] tag::TagSet audit_set(const ZoneState& state) const;
  [[nodiscard]] bool should_abort() const noexcept;
  [[nodiscard]] std::uint64_t config_fingerprint() const;
  void record_observability(const FleetResult& result);

  FleetConfig config_;
  std::vector<std::unique_ptr<Inventory>> inventories_;
  std::vector<std::string> rejected_;
  std::vector<std::uint64_t> wave_zones_;  // zones admitted per wave
  std::uint64_t deferred_count_ = 0;
  bool ran_ = false;

  /// Set when a zone task throws (first exception wins; rethrown from
  /// run() after the pool stops) — the crash story a long-running daemon
  /// supervises, not a path normal monitoring ever takes.
  std::atomic<bool> task_failed_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;

  std::unique_ptr<class FleetScheduler> scheduler_;
  std::unique_ptr<storage::FleetJournal> journal_;
};

}  // namespace rfid::fleet
