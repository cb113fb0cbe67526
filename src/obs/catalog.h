// The metric catalog: every family the instrumented layers emit, defined
// once so label sets, help strings, and bucket layouts cannot drift between
// call sites (the registry rejects conflicting re-registration, so a drifted
// caller fails fast instead of forking the series).
//
// Naming follows Prometheus conventions: rfidmon_ prefix, _total suffix on
// counters, explicit unit suffixes (_us, _bytes). The full table with
// layers and label meanings lives in docs/observability.md — keep the two
// in sync.
//
// Each helper resolves through the family map under a mutex; hot paths
// (per-round, per-frame) should resolve once and cache the reference —
// that is what TrpServer/UtrpServer/Link do in their set_metrics/attach
// hooks.
#pragma once

#include <string_view>

#include "obs/metrics.h"

namespace rfid::obs::catalog {

// ----------------------------------------------------------- protocol ----

inline Counter& challenges_total(MetricsRegistry& r, std::string_view protocol) {
  return r.counter_family("rfidmon_challenges_total",
                          "Challenges issued, by protocol.", {"protocol"})
      .with({protocol});
}

inline Counter& rounds_total(MetricsRegistry& r, std::string_view protocol,
                             std::string_view outcome) {
  return r.counter_family(
           "rfidmon_rounds_total",
           "Monitoring rounds verified, by protocol and verdict outcome.",
           {"protocol", "outcome"})
      .with({protocol, outcome});
}

inline Counter& slots_total(MetricsRegistry& r, std::string_view protocol) {
  return r.counter_family("rfidmon_slots_total",
                          "Frame slots consumed by verified rounds.",
                          {"protocol"})
      .with({protocol});
}

inline Counter& mismatched_slots_total(MetricsRegistry& r,
                                       std::string_view protocol) {
  return r.counter_family(
           "rfidmon_mismatched_slots_total",
           "Slots that differed from the expected bitstring (theft signal).",
           {"protocol"})
      .with({protocol});
}

inline Histogram& frame_size(MetricsRegistry& r, std::string_view protocol) {
  return r.histogram_family(
           "rfidmon_frame_size",
           "Frame size chosen per issued challenge (Eq. 2 / Eq. 3).",
           {"protocol"}, Histogram::exponential_bounds(16.0, 2.0, 16))
      .with({protocol});
}

inline Counter& reseeds_total(MetricsRegistry& r, std::string_view side) {
  return r.counter_family(
           "rfidmon_reseeds_total",
           "UTRP re-seed broadcasts walked (reader = physical scan, mirror = "
           "the server's one walk of each intact round).",
           {"side"})
      .with({side});
}

inline Counter& multi_round_campaigns_total(MetricsRegistry& r,
                                            std::string_view outcome) {
  return r.counter_family("rfidmon_multi_round_campaigns_total",
                          "Multi-round TRP campaigns verified, by outcome.",
                          {"outcome"})
      .with({outcome});
}

inline Counter& bulk_slots_total(MetricsRegistry& r, std::string_view kernel) {
  return r.counter_family(
           "rfidmon_bulk_slots_total",
           "Tag slot computations executed by a columnar bulk kernel, by "
           "kernel (trp_frame | utrp_seed).",
           {"kernel"})
      .with({kernel});
}

// --------------------------------------------------------------- wire ----

inline Counter& frames_sent_total(MetricsRegistry& r,
                                  std::string_view direction) {
  return r.counter_family("rfidmon_frames_sent_total",
                          "Frames offered to a link (duplicates included).",
                          {"direction"})
      .with({direction});
}

inline Counter& frames_dropped_total(MetricsRegistry& r,
                                     std::string_view direction) {
  return r.counter_family("rfidmon_frames_dropped_total",
                          "Frames a link dropped (i.i.d. loss plus bursts).",
                          {"direction"})
      .with({direction});
}

inline Counter& bytes_sent_total(MetricsRegistry& r,
                                 std::string_view direction) {
  return r.counter_family("rfidmon_bytes_sent_total",
                          "Payload bytes offered to a link.", {"direction"})
      .with({direction});
}

inline Counter& retransmissions_total(MetricsRegistry& r) {
  return r.counter("rfidmon_retransmissions_total",
                   "Timeout-driven retransmissions across all sessions.");
}

inline Counter& scan_slots_total(MetricsRegistry& r, std::string_view protocol,
                                 std::string_view kind) {
  return r.counter_family(
           "rfidmon_scan_slots_total",
           "Slots the reader observed while scanning, empty vs. reply.",
           {"protocol", "kind"})
      .with({protocol, kind});
}

inline Counter& sessions_total(MetricsRegistry& r, std::string_view protocol,
                               std::string_view outcome) {
  return r.counter_family(
           "rfidmon_sessions_total",
           "Wire sessions finished, by protocol and outcome ('completed' or "
           "the FailureReason).",
           {"protocol", "outcome"})
      .with({protocol, outcome});
}

inline Histogram& session_duration_us(MetricsRegistry& r,
                                      std::string_view protocol) {
  return r.histogram_family(
           "rfidmon_session_duration_us",
           "End-to-end wire session duration in simulated microseconds.",
           {"protocol"}, Histogram::exponential_bounds(1000.0, 4.0, 12))
      .with({protocol});
}

inline Counter& round_failures_total(MetricsRegistry& r,
                                     std::string_view reason) {
  return r.counter_family("rfidmon_round_failures_total",
                          "Rounds that failed, by FailureReason.", {"reason"})
      .with({reason});
}

inline Counter& faults_injected_total(MetricsRegistry& r,
                                      std::string_view kind) {
  return r.counter_family(
           "rfidmon_faults_injected_total",
           "Faults the injector actually delivered, by kind (burst_drop, "
           "corrupt, duplicate, reorder, reader_crash).",
           {"kind"})
      .with({kind});
}

inline Counter& corrupt_frames_rejected_total(MetricsRegistry& r) {
  return r.counter("rfidmon_corrupt_frames_rejected_total",
                   "Frames the framing checksum rejected at a receiver.");
}

// ------------------------------------------------------------- server ----

inline Counter& alerts_total(MetricsRegistry& r, std::string_view kind) {
  return r.counter_family("rfidmon_alerts_total",
                          "Alerts recorded on the inventory server, by kind.",
                          {"kind"})
      .with({kind});
}

inline Counter& resyncs_total(MetricsRegistry& r) {
  return r.counter("rfidmon_resyncs_total",
                   "Diverged UTRP mirrors healed from a physical audit.");
}

inline Counter& verdicts_total(MetricsRegistry& r, std::string_view protocol,
                               std::string_view verdict) {
  return r.counter_family(
           "rfidmon_verdicts_total",
           "Detection verdicts the inventory server produced (intact | "
           "violated).",
           {"protocol", "verdict"})
      .with({protocol, verdict});
}

inline Counter& groups_enrolled_total(MetricsRegistry& r,
                                      std::string_view protocol) {
  return r.counter_family("rfidmon_groups_enrolled_total",
                          "Groups enrolled on the inventory server.",
                          {"protocol"})
      .with({protocol});
}

inline Counter& expected_cache_total(MetricsRegistry& r,
                                     std::string_view result) {
  return r.counter_family(
           "rfidmon_expected_cache_total",
           "Expected-bitstring cache lookups on TRP submissions, by result "
           "(hit | miss).",
           {"result"})
      .with({result});
}

inline Counter& expected_cache_invalidations_total(MetricsRegistry& r) {
  return r.counter("rfidmon_expected_cache_invalidations_total",
                   "Expected-bitstring cache entries dropped because their "
                   "group was re-enrolled, resynced, or decommissioned.");
}

// -------------------------------------------------------------- fleet ----

inline Counter& fleet_runs_total(MetricsRegistry& r, std::string_view verdict) {
  return r.counter_family(
           "rfidmon_fleet_runs_total",
           "Fleet runs aggregated, by global verdict (intact | violated | "
           "inconclusive).",
           {"verdict"})
      .with({verdict});
}

inline Counter& fleet_inventories_total(MetricsRegistry& r,
                                        std::string_view verdict) {
  return r.counter_family(
           "rfidmon_fleet_inventories_total",
           "Inventories a fleet run monitored, by per-inventory verdict.",
           {"verdict"})
      .with({verdict});
}

inline Counter& fleet_admissions_total(MetricsRegistry& r,
                                       std::string_view result) {
  return r.counter_family(
           "rfidmon_fleet_admissions_total",
           "Inventory submissions, by admission result (accepted | deferred "
           "| rejected).",
           {"result"})
      .with({result});
}

inline Counter& fleet_zones_total(MetricsRegistry& r,
                                  std::string_view status) {
  return r.counter_family(
           "rfidmon_fleet_zones_total",
           "Zones that reached a terminal state, by ZoneStatus (intact | "
           "violated | failed).",
           {"status"})
      .with({status});
}

inline Counter& fleet_zone_attempts_total(MetricsRegistry& r,
                                          std::string_view protocol) {
  return r.counter_family(
           "rfidmon_fleet_zone_attempts_total",
           "Zone session attempts executed (first tries plus requeues), by "
           "protocol.",
           {"protocol"})
      .with({protocol});
}

inline Counter& fleet_requeues_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fleet_requeues_total",
                   "Zones requeued onto healthy capacity after a retryable "
                   "FailureReason.");
}

inline Counter& fleet_escalations_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fleet_escalations_total",
                   "Zones escalated as fleet-level alerts after exhausting "
                   "their attempt cap.");
}

inline Counter& fleet_zone_resyncs_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fleet_zone_resyncs_total",
                   "UTRP zone mirrors rebuilt from a fresh audit before a "
                   "retry (divergence healing).");
}

inline Counter& fleet_zones_recovered_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fleet_zones_recovered_total",
                   "Zone results reused from an interrupted run's fleet "
                   "journal instead of re-executed.");
}

inline Histogram& fleet_zone_duration_us(MetricsRegistry& r,
                                         std::string_view protocol) {
  return r.histogram_family(
           "rfidmon_fleet_zone_duration_us",
           "Simulated duration of a zone's final session attempt.",
           {"protocol"}, Histogram::exponential_bounds(1000.0, 4.0, 12))
      .with({protocol});
}

// ------------------------------------------------------------- fusion ----

inline Counter& fusion_slots_fused_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fusion_slots_fused_total",
                   "Frame slots put through the multi-reader majority vote.");
}

inline Counter& fusion_votes_overruled_total(MetricsRegistry& r,
                                             std::string_view direction) {
  return r.counter_family(
           "rfidmon_fusion_votes_overruled_total",
           "Per-reader slot votes the fused majority overruled, by "
           "direction (phantom_busy | missed_busy).",
           {"direction"})
      .with({direction});
}

inline Counter& fusion_rounds_degraded_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fusion_rounds_degraded_total",
                   "Zone rounds committed below the completion quorum.");
}

inline Counter& fusion_readers_suspected_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fusion_readers_suspected_total",
                   "Readers flagged suspect for persistently outvoted or "
                   "phantom slot evidence.");
}

inline Counter& fusion_readers_quarantined_total(MetricsRegistry& r) {
  return r.counter("rfidmon_fusion_readers_quarantined_total",
                   "Readers the daemon's per-reader health tier placed in "
                   "quarantine.");
}

// ------------------------------------------------------------- daemon ----

inline Counter& daemon_epochs_total(MetricsRegistry& r,
                                    std::string_view verdict) {
  return r.counter_family(
           "rfidmon_daemon_epochs_total",
           "Monitoring epochs the daemon checkpointed, by epoch verdict "
           "(intact | violated | inconclusive | degraded).",
           {"verdict"})
      .with({verdict});
}

inline Counter& daemon_alerts_total(MetricsRegistry& r,
                                    std::string_view kind) {
  return r.counter_family(
           "rfidmon_daemon_alerts_total",
           "Daemon alerts raised (replayed alerts are never re-counted), by "
           "kind.",
           {"kind"})
      .with({kind});
}

inline Counter& daemon_restarts_total(MetricsRegistry& r,
                                      std::string_view cause) {
  return r.counter_family(
           "rfidmon_daemon_restarts_total",
           "Supervised monitor restarts, by cause (crash | hang).", {"cause"})
      .with({cause});
}

inline Counter& daemon_checkpoints_total(MetricsRegistry& r) {
  return r.counter("rfidmon_daemon_checkpoints_total",
                   "Epoch checkpoints made durable in the daemon journal.");
}

inline Counter& daemon_replayed_alerts_total(MetricsRegistry& r) {
  return r.counter("rfidmon_daemon_replayed_alerts_total",
                   "Alerts restored from the daemon journal on resume "
                   "(already counted by the run that raised them).");
}

inline Histogram& daemon_resume_duration_us(MetricsRegistry& r) {
  return r.histogram("rfidmon_daemon_resume_duration_us",
                     "Wall-clock time to replay the daemon journal and "
                     "rebuild monitor state after a restart.",
                     Histogram::exponential_bounds(10.0, 4.0, 12));
}

// ------------------------------------------------------------ storage ----

inline Counter& journal_appends_total(MetricsRegistry& r) {
  return r.counter("rfidmon_journal_appends_total",
                   "Mutation records appended (and flushed) to the WAL.");
}

inline Counter& journal_bytes_total(MetricsRegistry& r) {
  return r.counter("rfidmon_journal_bytes_total",
                   "Encoded bytes appended to the WAL.");
}

inline Counter& journal_append_failures_total(MetricsRegistry& r) {
  return r.counter("rfidmon_journal_append_failures_total",
                   "WAL appends that failed with IoError (journal abandoned "
                   "by an emergency rotation).");
}

inline Counter& snapshot_rotations_total(MetricsRegistry& r) {
  return r.counter("rfidmon_snapshot_rotations_total",
                   "Checkpoint rotations (snapshot + fresh journal).");
}

inline Counter& recoveries_total(MetricsRegistry& r, std::string_view clean) {
  return r.counter_family(
           "rfidmon_recoveries_total",
           "Recoveries completed at startup; clean=\"false\" means damage "
           "was found (and healed).",
           {"clean"})
      .with({clean});
}

inline Histogram& recovery_duration_us(MetricsRegistry& r) {
  return r.histogram("rfidmon_recovery_duration_us",
                     "Wall-clock recovery duration (clock seam: see "
                     "DurabilityConfig::clock).",
                     Histogram::exponential_bounds(10.0, 4.0, 12));
}

inline Counter& recovery_records_replayed_total(MetricsRegistry& r) {
  return r.counter("rfidmon_recovery_records_replayed_total",
                   "Journal records replayed across all recoveries.");
}

inline Counter& recovery_truncated_bytes_total(MetricsRegistry& r) {
  return r.counter("rfidmon_recovery_truncated_bytes_total",
                   "Torn or rotted journal bytes dropped during recovery.");
}

inline Counter& recovery_snapshots_skipped_total(MetricsRegistry& r) {
  return r.counter("rfidmon_recovery_snapshots_skipped_total",
                   "Rotted/torn snapshots passed over during recovery.");
}

inline Counter& recovery_healed_total(MetricsRegistry& r) {
  return r.counter("rfidmon_recovery_healed_total",
                   "Recoveries that re-checkpointed to heal on-storage "
                   "damage (RecoveryReport::rotated_after_recovery).");
}

// ---------------------------------------------------- identification ----

inline Counter& identify_campaigns_total(MetricsRegistry& r,
                                         std::string_view protocol,
                                         std::string_view outcome) {
  return r
      .counter_family("rfidmon_identify_campaigns_total",
                      "Missing-tag identification campaigns by family "
                      "member and outcome (resolved vs round-capped).",
                      {"protocol", "outcome"})
      .with({protocol, outcome});
}

inline Counter& identify_rounds_total(MetricsRegistry& r,
                                      std::string_view protocol) {
  return r
      .counter_family("rfidmon_identify_rounds_total",
                      "Framed rounds spent by identification campaigns.",
                      {"protocol"})
      .with({protocol});
}

inline Counter& identify_slots_total(MetricsRegistry& r,
                                     std::string_view protocol,
                                     std::string_view kind) {
  return r
      .counter_family("rfidmon_identify_slots_total",
                      "Air slots consumed by identification campaigns: "
                      "framed slots vs tree-split prefix queries.",
                      {"protocol", "kind"})
      .with({protocol, kind});
}

inline Counter& identify_tags_total(MetricsRegistry& r,
                                    std::string_view verdict) {
  return r
      .counter_family("rfidmon_identify_tags_total",
                      "Tags classified by identification campaigns: "
                      "missing, present, or unresolved at the round cap.",
                      {"verdict"})
      .with({verdict});
}

inline Counter& identify_filter_bits_total(MetricsRegistry& r) {
  return r.counter("rfidmon_identify_filter_bits_total",
                   "Reader-to-tag ACK-filter bits broadcast by "
                   "filter-first identification campaigns.");
}

// ------------------------------------------------------------ service ----

inline Counter& service_connections_total(MetricsRegistry& r,
                                          std::string_view kind) {
  return r.counter_family(
           "rfidmon_service_connections_total",
           "Connections the monitoring service accepted, by listener "
           "(client | http).",
           {"kind"})
      .with({kind});
}

inline Gauge& service_active_connections(MetricsRegistry& r) {
  return r.gauge("rfidmon_service_active_connections",
                 "Client and HTTP connections currently open.");
}

inline Counter& service_frames_total(MetricsRegistry& r,
                                     std::string_view direction) {
  return r.counter_family("rfidmon_service_frames_total",
                          "Service frames parsed from (in) or queued to "
                          "(out) client connections.",
                          {"direction"})
      .with({direction});
}

inline Counter& service_frame_errors_total(MetricsRegistry& r,
                                           std::string_view kind) {
  return r.counter_family(
           "rfidmon_service_frame_errors_total",
           "Typed protocol errors sent to clients (oversized_frame, "
           "bad_checksum, unknown_type, malformed_payload, ...).",
           {"kind"})
      .with({kind});
}

inline Counter& service_admissions_total(MetricsRegistry& r,
                                         std::string_view result) {
  return r.counter_family(
           "rfidmon_service_admissions_total",
           "Tenant run/watch requests through admission control, by "
           "result (accepted | deferred | rejected).",
           {"result"})
      .with({result});
}

inline Counter& service_runs_total(MetricsRegistry& r,
                                   std::string_view verdict) {
  return r.counter_family(
           "rfidmon_service_runs_total",
           "Monitoring runs the service completed, by global verdict "
           "(intact | violated | inconclusive | aborted).",
           {"verdict"})
      .with({verdict});
}

inline Histogram& service_run_latency_us(MetricsRegistry& r) {
  return r.histogram("rfidmon_service_run_latency_us",
                     "Admission-to-verdict latency of a monitoring run "
                     "(wall clock, HDR buckets).",
                     Histogram::hdr_bounds(64.0, 6.7e7, 8));
}

inline Gauge& service_active_streams(MetricsRegistry& r) {
  return r.gauge("rfidmon_service_active_streams",
                 "Connections currently subscribed to a tenant alert feed.");
}

inline Counter& service_http_requests_total(MetricsRegistry& r,
                                            std::string_view path) {
  return r.counter_family(
           "rfidmon_service_http_requests_total",
           "Scrape-endpoint HTTP requests, by path (metrics | "
           "metrics_json | healthz | other).",
           {"path"})
      .with({path});
}

}  // namespace rfid::obs::catalog
