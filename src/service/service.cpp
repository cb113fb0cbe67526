#include "service/service.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/daemon.h"
#include "fleet/fleet.h"
#include "fleet/scheduler.h"
#include "math/frame_optimizer.h"
#include "obs/catalog.h"
#include "obs/expose.h"
#include "server/group_planner.h"
#include "service/framing.h"
#include "service/messages.h"
#include "service/socket.h"
#include "storage/backend.h"
#include "tag/tag_set.h"
#include "util/expect.h"

namespace rfid::service {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::size_t kHttpHeaderLimit = 8 * 1024;
/// Rounds per zone session an Enroll may ask for. A session never reads the
/// abort token and keeps every round's verdict and bitstring, so an
/// unbounded count would outlast any drain budget and grow without bound.
constexpr std::uint64_t kMaxRoundsPerSession = 64;
/// Planned slots (every zone's Eq. 2 frame, times the rounds) an Enroll may
/// ask each run to simulate: the optimizer's one-frame cap. A tiny inventory
/// at alpha near 1 plans frames of millions of slots (100 tags at m = 0 and
/// alpha = 0.99999 plan 9,899,951 a round), and a session walks them round
/// by round without reading the abort token.
constexpr std::uint64_t kMaxSlotsPerRun = math::kMaxFrameSize;

}  // namespace

struct MonitorService::Impl {
  // ------------------------------------------------------------ types ----

  using Clock = std::chrono::steady_clock;

  struct Enrolled {
    // Immutable once enrolled, prepared once and borrowed by every run: a
    // re-Enroll swaps in a new population, and a run already launched keeps
    // the snapshot it was handed.
    std::shared_ptr<const fleet::PreparedPopulation> population;
    fleet::Protocol protocol = fleet::Protocol::kTrp;
    std::uint64_t tolerance = 1;
    double alpha = 0.95;
    std::uint64_t zone_capacity = 0;
    std::uint64_t rounds = 1;
  };

  struct Tenant {
    double tokens = 0.0;
    bool bucket_primed = false;
    std::uint64_t last_refill_us = 0;
    std::uint64_t inflight = 0;
    std::uint64_t next_sequence = 0;
    std::map<std::string, Enrolled> inventories;
    // Bounded retained backlog, as encoded kTenantAlert frames: each alert
    // is encoded once, and Subscribe replays the stored bytes.
    std::deque<std::vector<std::byte>> feed;
  };

  struct Conn : std::enable_shared_from_this<Conn> {
    enum class Kind : std::uint8_t { kClient, kHttp };
    Kind kind = Kind::kClient;
    Socket sock;
    FrameReader reader;
    std::string http_buf;
    std::deque<std::vector<std::byte>> outbox;
    std::size_t outbox_offset = 0;  // sent bytes of outbox.front()
    std::size_t outbox_bytes = 0;
    bool hello = false;
    bool counted = false;  // active-connections gauge was incremented
    std::string tenant;
    std::uint64_t session_id = 0;
    bool subscribed = false;
    bool closing = false;  // flush outbox, then close
    bool dead = false;     // drop immediately, peer is gone

    Conn(Kind k, Socket s, std::uint32_t max_payload)
        : kind(k), sock(std::move(s)), reader(max_payload) {}
  };

  struct PendingRun {
    bool watch = false;
    std::string tenant;
    // The requesting connection. `conns` owns every connection, so one
    // reaped before the run ends leaves nothing here to write to.
    std::weak_ptr<Conn> conn;
    std::uint64_t run_id = 0;
    std::uint64_t admitted_us = 0;
    StartRunRequest run;
    StartWatchRequest watch_req;
  };

  /// Everything a worker task needs, built on the IO thread so the task
  /// never touches shared tenant state.
  struct RunWork {
    PendingRun pending;
    fleet::InventorySpec spec;       // runs only
    // Runs only: the enrolled population the run borrows.
    std::shared_ptr<const fleet::PreparedPopulation> population;
    daemon::DaemonConfig dcfg;       // watches only
    daemon::WarehouseConfig dwarehouse;
  };

  struct Completion {
    PendingRun pending;
    bool failed = false;  // refused at launch, or an exception escaped
    ErrorCode error = ErrorCode::kInternal;
    std::string failure;  // the error message sent to the client
    fleet::FleetResult fleet;  // runs
    std::vector<daemon::DaemonAlert> daemon_alerts;  // watches
    std::uint64_t epochs_completed = 0;
    bool gave_up = false;
  };

  // ------------------------------------------------------------ state ----

  ServiceConfig config;
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Listener> http_listener;
  WakePipe wake;
  std::unique_ptr<fleet::FleetScheduler> pool;
  std::thread io_thread;
  Clock::time_point epoch_tp;

  // Shared across threads, besides the completion queue: stop() sets
  // `stopped` and joins the IO thread, which runs the drain; the IO thread
  // requests `abort_runs`' stop when the drain budget expires, and its
  // token reaches every run and watch it launched.
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::stop_source abort_runs;

  std::mutex done_mu;
  std::vector<Completion> done;

  // IO-thread-only state.
  std::vector<std::shared_ptr<Conn>> conns;
  std::map<std::string, Tenant> tenants;
  std::deque<PendingRun> deferred;
  std::uint64_t inflight = 0;  // launched runs not yet through finish()
  std::uint64_t finished = 0;  // finish() calls, for check_invariants()
  std::uint64_t next_session = 1;
  std::uint64_t next_run = 1;
  bool draining = false;  // stop() was seen; set once, by drain_step()
  Clock::time_point drain_deadline;

  ServiceStats stats;  // IO thread writes; stop() reads after join

  explicit Impl(ServiceConfig cfg) : config(std::move(cfg)) {}

  // ------------------------------------------------------------ clock ----

  [[nodiscard]] std::uint64_t now_us() const {
    if (config.clock_us) return config.clock_us();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - epoch_tp)
            .count());
  }

  // ---------------------------------------------------------- metrics ----

  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return config.metrics;
  }

  void count_frame_error(ErrorCode code) {
    ++stats.frame_errors;
    if (metrics() != nullptr) {
      obs::catalog::service_frame_errors_total(*metrics(), to_string(code))
          .inc();
    }
  }

  // ----------------------------------------------------------- outbox ----

  /// Returns whether the bytes were actually enqueued: false when the
  /// connection is already going away or the slow-consumer cut fired.
  bool queue_bytes(Conn& c, std::vector<std::byte> bytes) {
    if (c.closing || c.dead) return false;
    c.outbox_bytes += bytes.size();
    if (c.outbox_bytes > config.outbox_limit_bytes) {
      // Slow consumer: cut the connection instead of buffering unboundedly.
      c.outbox.clear();
      c.outbox_offset = 0;
      c.outbox_bytes = 0;
      c.dead = true;
      count_frame_error(ErrorCode::kOverloaded);
      return false;
    }
    c.outbox.push_back(std::move(bytes));
    return true;
  }

  /// Queues one encoded frame and counts it as sent.
  void send_frame(Conn& c, std::vector<std::byte> frame) {
    if (!queue_bytes(c, std::move(frame))) return;
    ++stats.frames_out;
    if (metrics() != nullptr) {
      obs::catalog::service_frames_total(*metrics(), "out").inc();
    }
  }

  template <typename Msg>
  void send(Conn& c, FrameType type, const Msg& msg) {
    send_frame(c, encode_frame(type, encode(msg)));
  }

  void send_error(Conn& c, ErrorCode code, std::string message) {
    count_frame_error(code);
    send(c, FrameType::kError, ErrorMsg{code, std::move(message)});
    if (is_fatal(code)) c.closing = true;
  }

  // ------------------------------------------------------- tenant feed ----

  void publish_alert(const std::string& tenant_name, TenantAlert alert) {
    Tenant& tenant = tenants[tenant_name];
    alert.sequence = tenant.next_sequence++;
    std::vector<std::byte> frame =
        encode_frame(FrameType::kTenantAlert, encode(alert));
    for (const auto& conn : conns) {
      if (conn->subscribed && !conn->closing && !conn->dead &&
          conn->tenant == tenant_name) {
        send_frame(*conn, frame);
      }
    }
    tenant.feed.push_back(std::move(frame));
    while (tenant.feed.size() > config.alert_backlog) tenant.feed.pop_front();
  }

  // -------------------------------------------------------- admission ----

  void refill(Tenant& tenant, std::uint64_t now) {
    if (!tenant.bucket_primed) {
      tenant.tokens = config.token_capacity;
      tenant.last_refill_us = now;
      tenant.bucket_primed = true;
      return;
    }
    const double elapsed_s =
        static_cast<double>(now - tenant.last_refill_us) / 1e6;
    tenant.tokens = std::min(config.token_capacity,
                             tenant.tokens + elapsed_s * config.tokens_per_sec);
    tenant.last_refill_us = now;
  }

  void count_admission(const char* result) {
    if (metrics() != nullptr) {
      obs::catalog::service_admissions_total(*metrics(), result).inc();
    }
  }

  void reject(Conn& c, std::uint64_t retry_after_ms, std::string reason) {
    ++stats.rejected;
    count_admission("rejected");
    send(c, FrameType::kBackpressure,
         Backpressure{retry_after_ms, std::move(reason)});
  }

  /// Why `pending` cannot run over a population of `size` tags, or null.
  /// Checked at admission and again at launch, because a deferred run
  /// takes the population enrolled when it launches.
  [[nodiscard]] static const char* population_error(const PendingRun& pending,
                                                    std::uint64_t size) {
    if (pending.watch) {
      // steal_from + steal <= size, computed without overflow.
      const StartWatchRequest& req = pending.watch_req;
      if (req.steal > 0 &&
          (req.steal > size || req.steal_from > size - req.steal)) {
        return "steal range beyond the enrolled population";
      }
      return nullptr;
    }
    for (const std::uint64_t idx : pending.run.stolen) {
      if (idx >= size) return "stolen index out of range";
    }
    return nullptr;
  }

  void handle_start(Conn& c, PendingRun pending) {
    Tenant& tenant = tenants[c.tenant];
    const std::string& inventory_name =
        pending.watch ? pending.watch_req.inventory : pending.run.inventory;
    const auto it = tenant.inventories.find(inventory_name);
    if (it == tenant.inventories.end()) {
      send_error(c, ErrorCode::kUnknownInventory,
                 "inventory not enrolled: " + inventory_name);
      return;
    }
    if (pending.watch && pending.watch_req.epochs == 0) {
      send_error(c, ErrorCode::kBadRequest, "watch needs at least one epoch");
      return;
    }
    if (pending.watch && pending.watch_req.epochs > config.max_watch_epochs) {
      send_error(c, ErrorCode::kBadRequest, "watch epochs over limit");
      return;
    }
    if (const char* error = population_error(
            pending, it->second.population->tags().size())) {
      send_error(c, ErrorCode::kBadRequest, error);
      return;
    }
    if (draining) {
      reject(c, static_cast<std::uint64_t>(config.drain_timeout.count()),
             "shutting down");
      return;
    }

    const std::uint64_t now = now_us();
    refill(tenant, now);
    if (tenant.tokens < 1.0) {
      const double deficit_s =
          (1.0 - tenant.tokens) / std::max(config.tokens_per_sec, 1e-9);
      reject(c, static_cast<std::uint64_t>(deficit_s * 1000.0) + 1,
             "rate limited");
      return;
    }
    tenant.tokens -= 1.0;

    pending.tenant = c.tenant;
    pending.conn = c.weak_from_this();
    pending.run_id = next_run++;
    pending.admitted_us = now;

    if (inflight < config.max_inflight &&
        tenant.inflight < config.max_inflight_per_tenant) {
      ++stats.admitted;
      count_admission("accepted");
      send(c, FrameType::kRunAdmitted,
           RunAdmitted{pending.run_id,
                       static_cast<std::uint8_t>(fleet::Admission::kAccepted),
                       0});
      launch(std::move(pending));
      return;
    }
    if (deferred.size() < config.max_deferred) {
      ++stats.deferred;
      count_admission("deferred");
      deferred.push_back(std::move(pending));
      send(c, FrameType::kRunAdmitted,
           RunAdmitted{deferred.back().run_id,
                       static_cast<std::uint8_t>(fleet::Admission::kDeferred),
                       deferred.size()});
      return;
    }
    reject(c, config.reject_retry_ms * (deferred.size() + 1),
           "admission queue full");
  }

  /// Launches deferred runs in FIFO order while the in-flight bounds allow.
  /// Past the drain budget every deferred run goes to launch(), which
  /// starts none of them and answers each kShuttingDown.
  void launch_deferred() {
    const bool refuse = abort_runs.stop_requested();
    for (auto it = deferred.begin(); it != deferred.end();) {
      if (!refuse) {
        if (inflight >= config.max_inflight) break;
        if (tenants[it->tenant].inflight >= config.max_inflight_per_tenant) {
          ++it;
          continue;
        }
      }
      PendingRun pending = std::move(*it);
      it = deferred.erase(it);
      launch(std::move(pending));
    }
  }

  // ---------------------------------------------------------- execute ----

  void launch(PendingRun pending) {
    Tenant& tenant = tenants[pending.tenant];
    ++tenant.inflight;
    ++inflight;

    const Enrolled& enrolled =
        tenant.inventories.at(pending.watch ? pending.watch_req.inventory
                                            : pending.run.inventory);
    // A run refused here is finished like any other, which also balances
    // the in-flight counts above: nothing starts past the drain budget, and
    // a re-Enroll may have shrunk the population since admission.
    Completion refused;
    refused.failed = true;
    if (abort_runs.stop_requested()) {
      refused.error = ErrorCode::kShuttingDown;
      refused.failure = "run " + std::to_string(pending.run_id) +
                        " not started: shutting down";
    } else if (const char* error = population_error(
                   pending, enrolled.population->tags().size())) {
      refused.error = ErrorCode::kBadRequest;
      refused.failure = error;
    }
    if (!refused.failure.empty()) {
      refused.pending = std::move(pending);
      finish(refused);
      return;
    }
    auto work = std::make_shared<RunWork>();
    if (pending.watch) {
      const StartWatchRequest& req = pending.watch_req;
      work->dwarehouse.protocol = enrolled.protocol;
      work->dwarehouse.initial_tags = enrolled.population->tags().size();
      work->dwarehouse.tolerance = enrolled.tolerance;
      work->dwarehouse.zone_capacity = enrolled.zone_capacity;
      work->dwarehouse.alpha = enrolled.alpha;
      work->dwarehouse.rounds = enrolled.rounds;
      work->dwarehouse.identify.enabled = req.identify;
      if (req.steal > 0) {
        work->dwarehouse.churn.push_back(daemon::ChurnEvent{
            .epoch = req.steal_epoch,
            .enroll = 0,
            .decommission = 0,
            .steal = req.steal,
            .steal_from = req.steal_from});
      }
      work->dcfg.seed = req.seed;
      work->dcfg.name = pending.tenant + "/" + req.inventory;
      work->dcfg.epochs = req.epochs;
      work->dcfg.threads = config.run_threads;
      work->dcfg.metrics = config.metrics;
      // Drain contract: a blown stop() budget aborts in-flight watches
      // just like fleet runs — the daemon gives up instead of restarting.
      work->dcfg.abort = abort_runs.get_token();
    } else {
      const StartRunRequest& req = pending.run;
      fleet::InventorySpec spec;
      spec.name = req.inventory;
      spec.protocol = enrolled.protocol;
      spec.stolen = req.stolen;
      spec.alpha = enrolled.alpha;
      spec.rounds = enrolled.rounds;
      spec.identify.enabled = req.identify;
      work->spec = std::move(spec);
      work->population = enrolled.population;
    }
    work->pending = std::move(pending);

    // Admission-stamp EDF: earlier-admitted runs schedule first, so the
    // deferred queue drains FIFO through whichever worker frees up.
    pool->submit(static_cast<double>(work->pending.admitted_us),
                 [this, work] { execute(*work); });
  }

  void execute(RunWork& work) {
    Completion comp;
    try {
      if (work.pending.watch) {
        // Directory name derives from the server-generated run id only —
        // tenant/inventory strings are client-controlled and must never
        // reach the filesystem.
        std::unique_ptr<storage::StorageBackend> backend;
        if (config.journal_dir.empty()) {
          backend = std::make_unique<storage::MemoryBackend>();
        } else {
          backend = std::make_unique<storage::FileBackend>(
              config.journal_dir + "/watch-" +
              std::to_string(work.pending.run_id));
        }
        work.dcfg.backend = backend.get();
        daemon::MonitorDaemon watch(work.dcfg, work.dwarehouse);
        daemon::DaemonResult result = watch.run();
        comp.daemon_alerts = std::move(result.alerts);
        comp.epochs_completed = result.epochs_completed;
        comp.gave_up = result.gave_up;
      } else {
        fleet::FleetConfig fcfg;
        fcfg.seed = work.pending.run.seed;
        fcfg.threads = config.run_threads;
        fcfg.fleet_name = work.pending.tenant;
        fcfg.metrics = config.metrics;
        fcfg.abort = abort_runs.get_token();
        fleet::FleetOrchestrator orchestrator(std::move(fcfg));
        orchestrator.submit(std::move(work.spec), std::move(work.population));
        comp.fleet = orchestrator.run();
      }
    } catch (const std::exception& e) {
      comp.failed = true;
      comp.failure = std::string("run failed: ") + e.what();
    }
    comp.pending = std::move(work.pending);
    {
      const std::lock_guard<std::mutex> lock(done_mu);
      done.push_back(std::move(comp));
    }
    wake.wake();
  }

  // ------------------------------------------------------ completions ----

  void process_completions() {
    std::vector<Completion> batch;
    {
      const std::lock_guard<std::mutex> lock(done_mu);
      batch.swap(done);
    }
    for (Completion& comp : batch) finish(comp);
  }

  /// Answers one launched run: the only place a run leaves `inflight`.
  void finish(Completion& comp) {
    --tenants[comp.pending.tenant].inflight;
    --inflight;
    ++finished;

    const std::uint64_t latency = now_us() - comp.pending.admitted_us;
    if (metrics() != nullptr) {
      obs::catalog::service_run_latency_us(*metrics())
          .observe(static_cast<double>(latency));
    }

    const std::shared_ptr<Conn> conn = comp.pending.conn.lock();
    if (comp.failed) {
      ++stats.runs_aborted;
      if (metrics() != nullptr) {
        obs::catalog::service_runs_total(*metrics(), "aborted").inc();
      }
      if (conn != nullptr) send_error(*conn, comp.error, comp.failure);
      return;
    }

    if (comp.pending.watch) {
      finish_watch(comp, conn.get());
    } else {
      finish_run(comp, conn.get());
    }
  }

  void finish_run(Completion& comp, Conn* conn) {
    const fleet::FleetResult& result = comp.fleet;
    ++stats.runs_completed;
    const char* verdict_label =
        result.aborted ? "aborted" : fleet::to_string(result.verdict).data();
    if (result.aborted) ++stats.runs_aborted;
    if (metrics() != nullptr) {
      obs::catalog::service_runs_total(*metrics(), verdict_label).inc();
    }

    RunVerdictMsg verdict;
    verdict.run_id = comp.pending.run_id;
    verdict.inventory = comp.pending.run.inventory;
    verdict.verdict = static_cast<std::uint8_t>(result.verdict);
    verdict.zones = result.zones;
    verdict.attempts = result.attempts;
    verdict.tags_named = result.tags_named;
    verdict.aborted = result.aborted;
    for (const fleet::InventoryReport& inv : result.inventories) {
      for (const fleet::ZoneReport& zone : inv.zones) {
        if (zone.status == fleet::ZoneStatus::kViolated) ++verdict.zones_violated;
        if (zone.identification.ran) {
          verdict.missing.insert(verdict.missing.end(),
                                 zone.identification.missing.begin(),
                                 zone.identification.missing.end());
        }
      }
    }

    if (conn != nullptr) {
      for (const fleet::FleetAlert& alert : result.alerts) {
        send(*conn, FrameType::kRunAlert,
             RunAlertMsg{comp.pending.run_id,
                         std::string(fleet::to_string(alert.kind)),
                         alert.inventory, alert.zone, alert.detail});
      }
      send(*conn, FrameType::kRunVerdict, verdict);
    }

    // The tenant feed keeps theft evidence (with the drill-down's named
    // tags) and fleet alerts even if the requesting connection is gone.
    if (result.verdict == fleet::GlobalVerdict::kViolated) {
      TenantAlert alert;
      alert.kind = "run_violated";
      alert.run_id = comp.pending.run_id;
      alert.detail = comp.pending.run.inventory;
      alert.missing = verdict.missing;
      for (const fleet::InventoryReport& inv : result.inventories) {
        for (const fleet::ZoneReport& zone : inv.zones) {
          if (zone.status == fleet::ZoneStatus::kViolated) {
            alert.zone = zone.zone;
            break;
          }
        }
      }
      publish_alert(comp.pending.tenant, std::move(alert));
    }
    for (const fleet::FleetAlert& fleet_alert : result.alerts) {
      TenantAlert alert;
      alert.kind = std::string(fleet::to_string(fleet_alert.kind));
      alert.run_id = comp.pending.run_id;
      alert.zone = fleet_alert.zone;
      alert.detail = fleet_alert.detail;
      publish_alert(comp.pending.tenant, std::move(alert));
    }
  }

  void finish_watch(Completion& comp, Conn* conn) {
    ++stats.runs_completed;
    if (metrics() != nullptr) {
      obs::catalog::service_runs_total(*metrics(), "watch").inc();
    }
    for (const daemon::DaemonAlert& da : comp.daemon_alerts) {
      TenantAlert alert;
      alert.kind = std::string(daemon::to_string(da.kind));
      alert.run_id = comp.pending.run_id;
      alert.epoch = da.epoch;
      alert.zone = da.zone;
      alert.detail = da.detail;
      alert.missing = da.missing_tags;
      publish_alert(comp.pending.tenant, std::move(alert));
    }
    if (conn != nullptr) {
      send(*conn, FrameType::kWatchDone,
           WatchDone{comp.pending.run_id, comp.epochs_completed,
                     comp.daemon_alerts.size(), comp.gave_up});
    }
  }

  // ----------------------------------------------------- frame dispatch ----

  void handle_frame(Conn& c, const Frame& frame) {
    ++stats.frames_in;
    if (metrics() != nullptr) {
      obs::catalog::service_frames_total(*metrics(), "in").inc();
    }
    const auto type = static_cast<FrameType>(frame.type);
    try {
      switch (type) {
        case FrameType::kHello: {
          if (c.hello) {
            // One session per connection: a second Hello would mint a
            // second session id for the same connection.
            send_error(c, ErrorCode::kBadRequest,
                       "hello already received on this connection");
            return;
          }
          const HelloRequest req = decode_hello(frame.payload);
          if (req.version != kProtocolVersion) {
            send_error(c, ErrorCode::kBadVersion, "unsupported version");
            return;
          }
          if (req.tenant.empty()) {
            send_error(c, ErrorCode::kMalformedPayload, "empty tenant");
            return;
          }
          c.hello = true;
          c.tenant = req.tenant;
          c.session_id = next_session++;
          (void)tenants[c.tenant];
          send(c, FrameType::kHelloOk,
               HelloOk{kProtocolVersion, c.session_id, config.max_frame_bytes,
                       static_cast<std::uint64_t>(config.token_capacity),
                       config.max_inflight_per_tenant});
          return;
        }
        case FrameType::kPing:
          send(c, FrameType::kPong, decode_ping(frame.payload));
          return;
        case FrameType::kGoodbye:
          c.closing = true;
          return;
        default:
          break;
      }
      if (!c.hello) {
        send_error(c, ErrorCode::kHelloRequired, "hello first");
        return;
      }
      switch (type) {
        case FrameType::kEnroll:
          handle_enroll(c, decode_enroll(frame.payload));
          return;
        case FrameType::kStartRun: {
          PendingRun pending;
          pending.watch = false;
          pending.run = decode_start_run(frame.payload);
          handle_start(c, std::move(pending));
          return;
        }
        case FrameType::kStartWatch: {
          PendingRun pending;
          pending.watch = true;
          pending.watch_req = decode_start_watch(frame.payload);
          handle_start(c, std::move(pending));
          return;
        }
        case FrameType::kSubscribe: {
          Tenant& tenant = tenants[c.tenant];
          if (!c.subscribed) {
            c.subscribed = true;
            if (metrics() != nullptr) {
              obs::catalog::service_active_streams(*metrics()).add(1.0);
            }
          }
          send(c, FrameType::kSubscribeOk, SubscribeOk{tenant.feed.size()});
          for (const std::vector<std::byte>& alert : tenant.feed) {
            send_frame(c, alert);
          }
          return;
        }
        default:
          send_error(c, ErrorCode::kUnknownType, "unknown frame type");
          return;
      }
    } catch (const std::invalid_argument& e) {
      send_error(c, ErrorCode::kMalformedPayload, e.what());
    }
  }

  void handle_enroll(Conn& c, EnrollRequest req) {
    Tenant& tenant = tenants[c.tenant];
    if (req.tags.empty()) {
      send_error(c, ErrorCode::kBadRequest, "no tags to enroll");
      return;
    }
    if (req.protocol > 1) {
      send_error(c, ErrorCode::kBadRequest, "unknown protocol");
      return;
    }
    if (req.rounds > kMaxRoundsPerSession) {
      send_error(c, ErrorCode::kBadRequest,
                 "rounds above " + std::to_string(kMaxRoundsPerSession));
      return;
    }
    if (tenant.inventories.size() >= config.max_inventories_per_tenant &&
        tenant.inventories.find(req.inventory) == tenant.inventories.end()) {
      send_error(c, ErrorCode::kBadRequest, "inventory quota exhausted");
      return;
    }
    server::GroupPlan plan;
    try {
      plan = server::plan_groups(
          {.total_tags = req.tags.size(),
           .total_tolerance = req.tolerance,
           .alpha = req.alpha,
           .max_group_size = req.zone_capacity,
           .model = math::EmptySlotModel::kPoissonApprox});
    } catch (const std::invalid_argument& e) {
      send_error(c, ErrorCode::kBadRequest, e.what());
      return;
    }
    // rounds <= 64 was checked above, so the product cannot overflow.
    if (plan.total_slots * std::max<std::uint64_t>(1, req.rounds) >
        kMaxSlotsPerRun) {
      send_error(c, ErrorCode::kBadRequest,
                 "planned slots per run above " + std::to_string(kMaxSlotsPerRun));
      return;
    }
    std::vector<tag::Tag> tags;
    tags.reserve(req.tags.size());
    for (const tag::TagId& id : req.tags) tags.emplace_back(id);
    // Enroll once, run many: the zone split and each zone's columnar server
    // state are built here, and every run over this inventory borrows them.
    Enrolled enrolled;
    enrolled.population = fleet::PreparedPopulation::prepare(
        tag::TagSet(std::move(tags)), std::move(plan));
    enrolled.protocol = static_cast<fleet::Protocol>(req.protocol);
    enrolled.tolerance = req.tolerance;
    enrolled.alpha = req.alpha;
    enrolled.zone_capacity = req.zone_capacity;
    enrolled.rounds = std::max<std::uint64_t>(1, req.rounds);
    const fleet::PreparedPopulation& population = *enrolled.population;
    EnrollOk ok{req.inventory, population.tags().size(),
                population.plan().zones.size(), population.plan().total_slots};
    tenant.inventories[req.inventory] = std::move(enrolled);
    send(c, FrameType::kEnrollOk, ok);
  }

  // -------------------------------------------------------------- http ----

  void handle_http(Conn& c) {
    const std::size_t header_end = c.http_buf.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (c.http_buf.size() > kHttpHeaderLimit) c.dead = true;
      return;
    }
    std::string path = "";
    const std::size_t sp1 = c.http_buf.find(' ');
    if (sp1 != std::string::npos) {
      const std::size_t sp2 = c.http_buf.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) path = c.http_buf.substr(sp1 + 1, sp2 - sp1 - 1);
    }

    std::string status = "200 OK";
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
    const char* path_label = "other";
    if (path == "/metrics") {
      path_label = "metrics";
    } else if (path == "/metrics.json") {
      path_label = "metrics_json";
    } else if (path == "/healthz") {
      path_label = "healthz";
    }
    // Count the scrape before rendering, so a scrape observes itself — the
    // exposition always reflects every request the service has served.
    if (metrics() != nullptr) {
      obs::catalog::service_http_requests_total(*metrics(), path_label).inc();
    }
    if (path == "/metrics") {
      if (metrics() == nullptr) {
        status = "503 Service Unavailable";
        body = "no metrics registry configured\n";
      } else {
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = obs::render_prometheus(metrics()->snapshot());
      }
    } else if (path == "/metrics.json") {
      if (metrics() == nullptr) {
        status = "503 Service Unavailable";
        body = "no metrics registry configured\n";
      } else {
        content_type = "application/json";
        body = obs::render_json(metrics()->snapshot());
      }
    } else if (path == "/healthz") {
      body = draining ? "draining\n" : "ok\n";
    } else {
      status = "404 Not Found";
      body = "unknown path\n";
    }

    std::string response = "HTTP/1.0 " + status +
                           "\r\nContent-Type: " + content_type +
                           "\r\nContent-Length: " + std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    std::vector<std::byte> bytes(response.size());
    std::memcpy(bytes.data(), response.data(), response.size());
    queue_bytes(c, std::move(bytes));
    c.closing = true;
  }

  // ----------------------------------------------------------- IO loop ----

  void send_shutdown(Conn& c) {
    send(c, FrameType::kShutdown,
         ShutdownMsg{static_cast<std::uint64_t>(config.drain_timeout.count())});
  }

  void accept_loop(Listener& from, Conn::Kind kind) {
    while (auto sock = from.accept()) {
      auto conn = std::make_shared<Conn>(kind, std::move(*sock),
                                         config.max_frame_bytes);
      if (conns.size() >= config.max_connections) {
        // Refuse politely: a frame for clients, nothing for HTTP.
        if (kind == Conn::Kind::kClient) {
          send_error(*conn, ErrorCode::kOverloaded, "connection limit");
          conn->closing = true;
          conns.push_back(std::move(conn));
        }
        continue;
      }
      ++stats.connections;
      if (metrics() != nullptr) {
        obs::catalog::service_connections_total(
            *metrics(), kind == Conn::Kind::kClient ? "client" : "http")
            .inc();
        obs::catalog::service_active_connections(*metrics()).add(1.0);
      }
      conn->counted = true;
      if (draining && kind == Conn::Kind::kClient) send_shutdown(*conn);
      conns.push_back(std::move(conn));
    }
  }

  void read_conn(Conn& c) {
    std::byte buf[kReadChunk];
    std::vector<Frame> frames;
    for (;;) {
      long n = 0;
      try {
        n = c.sock.read_some(buf);
      } catch (const std::system_error&) {
        c.dead = true;
        return;
      }
      if (n < 0) break;  // would block
      if (n == 0) {      // orderly close
        if (c.outbox.empty()) c.dead = true;
        c.closing = true;
        break;
      }
      const std::span<const std::byte> data(buf, static_cast<std::size_t>(n));
      if (c.kind == Conn::Kind::kHttp) {
        c.http_buf.append(reinterpret_cast<const char*>(data.data()),
                          data.size());
        handle_http(c);
        if (c.closing || c.dead) break;
        continue;
      }
      frames.clear();
      const ErrorCode err = c.reader.feed(data, frames);
      for (const Frame& frame : frames) {
        if (c.closing || c.dead) break;
        handle_frame(c, frame);
      }
      if (err != ErrorCode::kNone) {
        send_error(c, err, "malformed frame");
        break;
      }
      if (c.closing || c.dead) break;
    }
  }

  void write_conn(Conn& c) {
    while (!c.outbox.empty()) {
      const std::vector<std::byte>& front = c.outbox.front();
      const std::span<const std::byte> rest(front.data() + c.outbox_offset,
                                            front.size() - c.outbox_offset);
      long n = 0;
      try {
        n = c.sock.write_some(rest);
      } catch (const std::system_error&) {
        c.dead = true;
        return;
      }
      if (n < 0) return;  // would block
      c.outbox_offset += static_cast<std::size_t>(n);
      c.outbox_bytes -= static_cast<std::size_t>(n);
      if (c.outbox_offset == front.size()) {
        c.outbox.pop_front();
        c.outbox_offset = 0;
      }
    }
  }

  void reap_conns() {
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = **it;
      if (c.dead || (c.closing && c.outbox.empty())) {
        if (metrics() != nullptr) {
          // Over-limit refusals were never counted in; decrementing them
          // out would drift the gauge negative under overload.
          if (c.counted) {
            obs::catalog::service_active_connections(*metrics()).add(-1.0);
          }
          if (c.subscribed) {
            obs::catalog::service_active_streams(*metrics()).add(-1.0);
          }
        }
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  // ------------------------------------------------------------- drain ----

  /// Runs are still in flight or deferred, and the drain budget decides
  /// whether they finish or abort.
  [[nodiscard]] bool budget_decides() const {
    return draining && (inflight > 0 || !deferred.empty()) &&
           !abort_runs.stop_requested();
  }

  /// The drain, run by the IO thread once per loop iteration. The first
  /// iteration that sees stop() starts it: new runs are refused from then
  /// on and every client hears the budget. If the budget expires before
  /// the runs drain, the abort stop is requested: in-flight runs abort
  /// cooperatively, and launch_deferred() starts nothing more.
  void drain_step() {
    if (!draining && stopped.load(std::memory_order_relaxed)) {
      draining = true;
      drain_deadline = Clock::now() + config.drain_timeout;
      for (const auto& conn : conns) {
        if (conn->kind == Conn::Kind::kClient) send_shutdown(*conn);
      }
    }
    if (budget_decides() && Clock::now() >= drain_deadline) {
      abort_runs.request_stop();
      stats.drained_cleanly = false;
    }
  }

  void io_loop() {
    std::vector<pollfd> pfds;
    std::vector<Conn*> polled;
    Clock::time_point flush_deadline{};
    constexpr std::size_t kConnsFrom = 3;  // after the pipe and listeners

    for (;;) {
      pfds.clear();
      polled.clear();
      pfds.push_back(pollfd{wake.read_fd(), POLLIN, 0});
      pfds.push_back(pollfd{listener->fd(), POLLIN, 0});
      pfds.push_back(pollfd{http_listener->fd(), POLLIN, 0});
      for (const auto& conn : conns) {
        short events = 0;
        if (!conn->closing && !conn->dead) events |= POLLIN;
        if (!conn->outbox.empty() && !conn->dead) events |= POLLOUT;
        pfds.push_back(pollfd{conn->sock.fd(), events, 0});
        polled.push_back(conn.get());
      }

      // While the budget decides, wait no longer than what is left of it,
      // so even a 1 ms budget expires on time.
      std::int64_t timeout_ms = 20;
      if (budget_decides()) {
        timeout_ms = std::clamp<std::int64_t>(
            std::chrono::ceil<std::chrono::milliseconds>(drain_deadline -
                                                         Clock::now())
                .count(),
            0, timeout_ms);
      }
      (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                   static_cast<int>(timeout_ms));
      wake.drain();

      // Completions free in-flight room, which deferred runs take before
      // any request read below.
      process_completions();
      drain_step();
      launch_deferred();

      if (pfds[1].revents != 0) accept_loop(*listener, Conn::Kind::kClient);
      if (pfds[2].revents != 0) accept_loop(*http_listener, Conn::Kind::kHttp);

      for (std::size_t i = 0; i < polled.size(); ++i) {
        Conn& c = *polled[i];
        const short revents = pfds[kConnsFrom + i].revents;
        if ((revents & (POLLERR | POLLNVAL)) != 0) {
          c.dead = true;
          continue;
        }
        if ((revents & (POLLIN | POLLHUP)) != 0 && !c.closing && !c.dead) {
          read_conn(c);
        }
        if ((revents & POLLOUT) != 0 && !c.dead) write_conn(c);
        // Also opportunistically flush frames queued this round.
        if (!c.outbox.empty() && !c.dead) write_conn(c);
      }

      reap_conns();
      check_invariants();

      if (draining && inflight == 0 && deferred.empty()) {
        // Every run is answered: flush the outboxes, bounded, and exit.
        if (flush_deadline == Clock::time_point{}) {
          flush_deadline = Clock::now() + std::chrono::seconds(1);
        }
        const bool flushed =
            std::all_of(conns.begin(), conns.end(), [](const auto& conn) {
              return conn->outbox.empty() || conn->dead;
            });
        if (flushed || Clock::now() >= flush_deadline) break;
      }
    }
    // Connections still open leave through the one reaping path, so the
    // connection and stream gauges return to zero.
    for (const auto& conn : conns) conn->dead = true;
    reap_conns();
  }

  // ------------------------------------------------------- invariants ----

  /// The IO thread's bookkeeping, checked after every loop iteration in
  /// debug builds and compiled out under NDEBUG. A violation throws
  /// std::logic_error on the IO thread, which ends the process.
  void check_invariants() const {
#ifndef NDEBUG
    std::uint64_t tenant_inflight = 0;
    for (const auto& [name, tenant] : tenants) {
      tenant_inflight += tenant.inflight;
      RFID_ENSURE(tenant.feed.size() <= config.alert_backlog,
                  "tenant feed over its backlog: " + name);
    }
    RFID_ENSURE(inflight == tenant_inflight,
                "in-flight count differs from the tenants' sum");
    // Every admitted run is answered exactly once: until finish() answers
    // it, it is deferred or in flight.
    RFID_ENSURE(stats.admitted + stats.deferred ==
                    finished + inflight + deferred.size(),
                "an admitted run was dropped or answered twice");
    for (const auto& conn : conns) {
      std::size_t queued = 0;
      for (const std::vector<std::byte>& bytes : conn->outbox) {
        queued += bytes.size();
      }
      RFID_ENSURE(conn->outbox_bytes == queued - conn->outbox_offset,
                  "outbox_bytes differs from the queued bytes");
      RFID_ENSURE(conn->outbox_bytes <= config.outbox_limit_bytes,
                  "outbox over its limit");
    }
#endif
  }

  // --------------------------------------------------------- lifecycle ----

  void start() {
    if (started.exchange(true)) {
      throw std::logic_error("MonitorService started twice");
    }
    raise_fd_limit();
    epoch_tp = Clock::now();
    listener = std::make_unique<Listener>(config.port);
    http_listener = std::make_unique<Listener>(config.http_port);
    // Nothing else drains the pool while the service runs, so 0 (hardware
    // concurrency) must resolve to at least one worker.
    pool = std::make_unique<fleet::FleetScheduler>(
        config.workers != 0
            ? config.workers
            : std::max(1u, std::thread::hardware_concurrency()));
    io_thread = std::thread([this] { io_loop(); });
  }

  ServiceStats stop() {
    if (!started.load() || stopped.exchange(true)) return stats;
    // The IO thread sees `stopped`, runs the drain and exits once every
    // run is answered. The pool then holds at most the tails of tasks whose
    // completions it already took. After a start() that threw, either may
    // be missing.
    wake.wake();
    if (io_thread.joinable()) io_thread.join();
    if (pool) pool->stop();
    return stats;
  }
};

MonitorService::MonitorService(ServiceConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

MonitorService::~MonitorService() {
  try {
    (void)impl_->stop();
  } catch (...) {
    // Destructors must not throw; the OS reclaims the sockets regardless.
  }
}

void MonitorService::start() { impl_->start(); }

std::uint16_t MonitorService::port() const noexcept {
  return impl_->listener ? impl_->listener->port() : 0;
}

std::uint16_t MonitorService::http_port() const noexcept {
  return impl_->http_listener ? impl_->http_listener->port() : 0;
}

ServiceStats MonitorService::stop() { return impl_->stop(); }

bool MonitorService::running() const noexcept {
  return impl_->started.load() && !impl_->stopped.load();
}

}  // namespace rfid::service
