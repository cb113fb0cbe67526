// MonitorService: the multi-tenant network front-end of the monitoring
// stack — the subsystem that turns in-process protocol machinery into a
// server real clients can hammer.
//
// One IO thread multiplexes every connection (poll-based, non-blocking)
// across two loopback listeners on ephemeral ports:
//
//   * the *service* port speaks the framed protocol of framing.h /
//     messages.h: hello -> enroll-inventory -> start-monitoring-run /
//     start-watch -> streamed verdicts, run alerts, and tenant alert
//     subscriptions (daemon alerts with the PR 9 named stolen tags ride a
//     per-tenant feed);
//   * the *HTTP* port is a plain-text scrape endpoint: GET /metrics renders
//     the obs registry as Prometheus exposition text, /metrics.json as the
//     JSON schema, /healthz as a liveness probe.
//
// Monitoring work never runs on the IO thread: admitted runs execute as
// tasks on a FleetScheduler worker pool (admission-stamp EDF order), and
// completions travel back over a queue plus self-pipe wakeup. A run's
// FleetOrchestrator runs its zones on the worker that took the run (a
// watch's daemon, on its monitor thread). The IO thread owns all
// connection/tenant state and every run count, so the request path needs
// no locks at all.
//
// Admission control is the service's own, per tenant and service-wide
// (RunAdmitted only borrows fleet::Admission's accepted/deferred codes):
//
//   * token bucket per tenant (capacity + refill/s) — a tenant out of
//     tokens is REJECTED with an explicit Backpressure frame carrying
//     retry_after_ms, never silently queued;
//   * bounded in-flight runs, per tenant and globally — a request over an
//     in-flight bound is DEFERRED into a bounded FIFO deferred queue (the
//     response says so, with the queue depth) and launches when a run
//     finishes; when that queue is full it is REJECTED with retry-after;
//   * slow consumers are bounded too: a connection whose outbox exceeds
//     its limit is closed, not buffered without bound.
//
// Graceful shutdown contract: stop() asks, and the IO thread runs the
// drain and decides its outcome.
//   1. new runs are refused with Backpressure("shutting down"); connected
//      clients receive a Shutdown frame naming the drain budget;
//   2. in-flight runs finish on the pool's workers, and deferred runs
//      keep launching as room frees — their verdicts still stream out;
//   3. if the drain budget expires first, the IO thread requests the
//      shared abort stop (one std::stop_source) — fleet runs read its token
//      and report themselves aborted, and in-flight watches, handed the
//      same token as DaemonConfig::abort, have it relayed into their
//      monitor life at once and give up (their checkpointed epochs stay
//      durable), exactly like a daemon watchdog kill. Runs still queued on
//      the pool start, see the stop at once and abort too. Nothing launches
//      after that: each run still deferred is answered with
//      Error{kShuttingDown} and counted as aborted, so every admitted run
//      is answered exactly once;
//   4. once no run is in flight, outboxes are flushed (best effort, for at
//      most a second), sockets close, and stop() returns the stats.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "obs/metrics.h"

namespace rfid::service {

struct ServiceConfig {
  /// Listener ports; 0 (the default) binds an ephemeral loopback port —
  /// what every hermetic test and bench uses. port()/http_port() report
  /// the bound values after start().
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
  /// Worker threads executing admitted runs (the service's FleetScheduler);
  /// 0 = hardware concurrency.
  unsigned workers = 2;
  /// FleetConfig::threads of every run and DaemonConfig::threads of every
  /// watch: 1 runs a run's zones on the worker that took it.
  unsigned run_threads = 1;
  /// Hard ceiling on one frame's payload; a larger declared length is
  /// rejected before allocation.
  std::uint32_t max_frame_bytes = 1u << 20;
  std::uint64_t max_connections = 4096;
  std::uint64_t max_inventories_per_tenant = 64;
  std::uint64_t max_watch_epochs = 16;

  // ---- admission ----
  double tokens_per_sec = 200.0;   // token bucket refill rate, per tenant
  double token_capacity = 64.0;    // token bucket burst capacity
  std::uint64_t max_inflight_per_tenant = 2;
  std::uint64_t max_inflight = 8;  // global in-flight run bound
  std::uint64_t max_deferred = 64;  // deferred queue bound; beyond = reject
  /// Retry hint when the deferred queue itself is saturated.
  std::uint64_t reject_retry_ms = 100;

  /// Slow-consumer bound: queued-but-unsent bytes before the connection is
  /// closed instead of buffered further.
  std::uint64_t outbox_limit_bytes = 8u << 20;
  /// Retained per-tenant alert-feed entries (subscription backlog).
  std::uint64_t alert_backlog = 1024;
  /// Durable-watch root. Empty (the default) gives each watch an
  /// in-memory backend: checkpoints exist for the watch's own resume
  /// logic but die with the process. Non-empty switches watches to
  /// storage::FileBackend under `<journal_dir>/watch-<run_id>` — one
  /// directory per watch, named by the server-generated run id only
  /// (never by client-supplied strings), so a kill mid-watch leaves the
  /// daemon + fleet journals on disk exactly as daemon_torture_test
  /// pins them.
  std::string journal_dir;
  /// Graceful-drain budget for stop().
  std::chrono::milliseconds drain_timeout{5000};

  /// Metrics registry (not owned; may be null). Runs also record their
  /// fleet_* series here; the service adds the service_* family.
  obs::MetricsRegistry* metrics = nullptr;
  /// Clock seam (microseconds, monotone) for token buckets and run
  /// latency. Null = steady_clock. Tests inject a manual clock to pin
  /// rate-limit arithmetic deterministically.
  std::function<std::uint64_t()> clock_us;
};

struct ServiceStats {
  std::uint64_t connections = 0;  // client + http, lifetime
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t rejected = 0;
  std::uint64_t runs_completed = 0;
  std::uint64_t runs_aborted = 0;
  /// stop() drained every admitted run inside the budget; false means the
  /// abort switch fired and some runs came back aborted or were never
  /// started.
  bool drained_cleanly = true;
};

class MonitorService {
 public:
  explicit MonitorService(ServiceConfig config);
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Binds both listeners and launches the IO thread. Call once.
  void start();

  /// Bound service / scrape ports (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] std::uint16_t http_port() const noexcept;

  /// Graceful shutdown per the contract above. Idempotent; also invoked by
  /// the destructor.
  ServiceStats stop();

  [[nodiscard]] bool running() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rfid::service
