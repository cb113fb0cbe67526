#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "daemon/daemon.h"
#include "harness.h"
#include "obs/metrics.h"
#include "server/group_planner.h"
#include "service/service.h"
#include "storage/backend.h"
#include "storage/fleet_journal.h"
#include "util/random.h"

namespace rfid::bench {

namespace {

constexpr char kInventory[] = "inv";
// Salts for the benchmark's own random streams. The theft pattern uses a
// fixed salt and no seed, so every seed sends the same request mix.
constexpr std::uint64_t kMixSalt = 0x6d6978ULL;         // "mix"
constexpr std::uint64_t kTheftSalt = 0x7468656674ULL;   // "theft"
constexpr std::uint64_t kPopulationSalt = 0x706f70ULL;  // "pop"
/// MonitorDaemon draws a watch's warehouse from the watch seed alone, not
/// from the enrolled inventory: its initial population is
/// TagSet::make_random(initial_tags) seeded with derive_seed(seed, 0, this
/// salt) (daemon.cpp, population_at). The benchmark rebuilds it to know
/// which tags a watch stole; the replayed watches compare the daemon's own
/// alerts with the same feed, so a drifted copy fails every watch.
constexpr std::uint64_t kDaemonPopulationSalt = 0x706f70756cULL;  // "popul"
constexpr char kFleetJournal[] = "fleet.journal";
constexpr std::uint64_t kRequestSalt = 1;
/// Set-up is repeated and its median reported, so one slow spawn or
/// connect does not decide setup_s: at least kMinSetups times, then until
/// kSetupBudgetUs is spent or kMaxSetups are done.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 21;
constexpr double kSetupBudgetUs = 2e6;
constexpr double kDrainTimeoutUs = 60e6;
constexpr double kPingPeriodUs = 10e3;
/// How often the generator reads the CPU's speed, and the slices of the
/// window that share one reading (see at_full_speed).
constexpr double kReferencePeriodUs = 50e3;
constexpr double kSliceUs = 1e6;
/// reference_us() on a CPU of the reference host at full speed.
constexpr double kFullSpeedReferenceUs = 135.0;

std::string tenant_name(std::size_t c) { return "tenant-" + std::to_string(c); }

/// Removes a directory tree on scope exit (the probes' file journals).
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// A running service process with connected, enrolled, subscribed tenants.
struct Deployment {
  std::unique_ptr<ServiceProcess> service;
  std::unique_ptr<LoadGenerator> load;
};

std::unique_ptr<Deployment> deploy(
    const Shape& shape, const Options& options,
    const std::vector<service::EnrollRequest>& enrolls) {
  auto d = std::make_unique<Deployment>();
  d->service = std::make_unique<ServiceProcess>(options);
  d->load = std::make_unique<LoadGenerator>(d->service->port(), shape.tenants,
                                            8u << 20);
  for (std::size_t c = 0; c < shape.tenants; ++c) {
    d->load->hello(c, tenant_name(c));
    d->load->enroll(c, enrolls[c]);
    d->load->subscribe(c);
  }
  return d;
}

Request make_request(const Shape& shape, const server::GroupPlan& plan,
                     std::uint64_t seed, std::uint64_t index) {
  Request r;
  r.index = index;
  r.conn = static_cast<std::uint32_t>(index % shape.tenants);
  r.seed = util::derive_seed(seed, kRequestSalt, index);
  r.theft = shape.theft_every <= 1 ||
            util::derive_seed(kMixSalt, index) % shape.theft_every == 0;
  if (!r.theft) return r;
  util::Rng rng(util::derive_seed(seed ^ kTheftSalt, kRequestSalt, index));
  const std::uint64_t zone =
      shape.theft_zone >= 0 ? static_cast<std::uint64_t>(shape.theft_zone)
                            : rng.below(plan.zones.size());
  std::uint64_t first = 0;
  for (std::uint64_t z = 0; z < zone; ++z) first += plan.zones[z].tags;
  const std::uint64_t n = plan.zones[zone].tags;
  if (shape.watch) {
    r.steal_from = first + rng.below(n - shape.steal + 1);
    return r;
  }
  // Floyd's sampling: `steal` distinct indices of the zone.
  std::set<std::uint64_t> picked;
  for (std::uint64_t j = n - shape.steal; j < n; ++j) {
    const std::uint64_t t = rng.below(j + 1);
    if (!picked.insert(first + t).second) picked.insert(first + j);
  }
  r.stolen.assign(picked.begin(), picked.end());
  return r;
}

std::vector<std::byte> start_payload(const Shape& shape, const Request& r) {
  if (shape.watch) {
    service::StartWatchRequest w;
    w.inventory = kInventory;
    w.seed = r.seed;
    w.epochs = shape.watch_epochs;
    w.identify = true;
    w.steal_epoch = shape.steal_epoch;
    w.steal = shape.steal;
    w.steal_from = r.steal_from;
    return service::encode(w);
  }
  service::StartRunRequest q;
  q.inventory = kInventory;
  q.seed = r.seed;
  q.identify = r.theft;
  q.stolen = r.stolen;
  return service::encode(q);
}

service::FrameType start_type(const Shape& shape) {
  return shape.watch ? service::FrameType::kStartWatch
                     : service::FrameType::kStartRun;
}

// ------------------------------------------------------------- phases ----

/// What the load phase observed. Its requests occupy requests[first, end).
struct Phase {
  std::size_t first = 0;
  std::size_t end = 0;
  double window_start = 0.0;
  double window_end = 0.0;
  double service_cpu_ms = 0.0;  // service process CPU inside the window
  /// (when, reference_us()) readings of the CPU's speed, one about every
  /// kReferencePeriodUs, taken between requests.
  std::vector<std::pair<double, double>> speed;
  Scrape before;  // traced runs only
  Scrape after;
  std::size_t feed_before = 0;
  std::size_t feed_after = 0;
};

std::size_t feed_size(const LoadGenerator& load) {
  std::size_t total = 0;
  for (const auto& feed : load.feeds) total += feed.size();
  return total;
}

struct LoadContext {
  const Shape& shape;
  const server::GroupPlan& plan;
  std::uint64_t seed;
  bool trace;
  Deployment& dep;
  Requests& requests;
};

/// The load phase's bookkeeping: the measured window, its CPU reading,
/// pings (traced runs), and the drain after the window closes.
class PhaseClock {
 public:
  PhaseClock(LoadContext& ctx, Phase& phase, double warm_s, double seconds)
      : ctx_(ctx), phase_(phase) {
    phase.first = ctx.requests.size();
    if (ctx.trace) {
      phase.before = ctx.dep.service->scrape();
      phase.feed_before = feed_size(*ctx.dep.load);
    }
    const double t0 = now_us();
    phase.window_start = t0 + warm_s * 1e6;
    phase.window_end = phase.window_start + seconds * 1e6;
    next_ping_ = t0;
  }

  /// Housekeeping at `now`; returns false once the window is over.
  bool tick(double now) {
    if (!cpu_started_ && now >= phase_.window_start) {
      phase_.service_cpu_ms = -ctx_.dep.service->cpu_ms();
      cpu_started_ = true;
    }
    if (ctx_.trace && now >= next_ping_) {
      ctx_.dep.load->ping(0);
      next_ping_ += kPingPeriodUs;
    }
    return now < phase_.window_end;
  }

  /// The latest time the loop may sleep until.
  [[nodiscard]] double deadline(double wanted) const {
    double d = std::min(wanted, phase_.window_end);
    if (!cpu_started_) d = std::min(d, phase_.window_start);
    if (ctx_.trace) d = std::min(d, next_ping_);
    return d;
  }

  void finish() {
    phase_.service_cpu_ms += ctx_.dep.service->cpu_ms();
    const double deadline = now_us() + kDrainTimeoutUs;
    while (ctx_.dep.load->outstanding() > 0 && now_us() < deadline) {
      (void)ctx_.dep.load->step(ctx_.requests,
                                  std::min(now_us() + 50e3, deadline));
    }
    ctx_.dep.load->sync(ctx_.requests);
    phase_.end = ctx_.requests.size();
    if (ctx_.trace) {
      phase_.after = ctx_.dep.service->scrape();
      phase_.feed_after = feed_size(*ctx_.dep.load);
    }
  }

 private:
  LoadContext& ctx_;
  Phase& phase_;
  double next_ping_ = 0.0;
  bool cpu_started_ = false;
};

/// A closed loop with one request in flight: the next request, to the next
/// tenant in turn, goes out as soon as the verdict arrives. The service has
/// one worker, so nothing queues and a request's latency is its own work
/// plus the path through the service. About every kReferencePeriodUs the
/// generator reads the CPU's speed before it sends, while the service is
/// idle, so the reading neither waits for the service nor slows it.
Phase closed_loop(LoadContext& ctx, double warm_s, double seconds) {
  Phase phase;
  PhaseClock clock(ctx, phase, warm_s, seconds);
  std::uint64_t index = 0;
  double next_reading = 0.0;
  const auto send_next = [&](double freed_at) {
    if (freed_at >= next_reading) {
      phase.speed.emplace_back(freed_at, reference_us());
      freed_at = now_us();
      next_reading = freed_at + kReferencePeriodUs;
    }
    const std::size_t slot = ctx.requests.size();
    Request r = make_request(ctx.shape, ctx.plan, ctx.seed, index++);
    r.due_us = freed_at;
    r.measured = freed_at >= phase.window_start;
    ctx.requests.push_back(std::move(r));
    ctx.dep.load->start(ctx.requests, slot, start_type(ctx.shape),
                        start_payload(ctx.shape, ctx.requests[slot]));
  };
  send_next(now_us());
  while (clock.tick(now_us())) {
    for (const std::size_t slot :
         ctx.dep.load->step(ctx.requests, clock.deadline(phase.window_end))) {
      const double freed_at = ctx.requests[slot].done_us;
      if (freed_at < phase.window_end) send_next(freed_at);
    }
  }
  clock.finish();
  return phase;
}

// ------------------------------------------------------------- checks ----

std::vector<tag::TagId> sorted(std::vector<tag::TagId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<tag::TagId> stolen_ids(const tag::TagSet& population,
                                   const std::vector<std::uint64_t>& indices) {
  std::vector<tag::TagId> ids;
  ids.reserve(indices.size());
  for (const std::uint64_t i : indices) ids.push_back(population.at(i).id());
  return sorted(std::move(ids));
}

struct Tally {
  std::uint64_t thefts = 0;
  std::uint64_t detected = 0;
};

/// The tags a watch stole, from the daemon's own population (see
/// kDaemonPopulationSalt).
std::vector<tag::TagId> watch_stolen_ids(const Shape& shape, const Request& r) {
  util::Rng rng(util::derive_seed(r.seed, 0, kDaemonPopulationSalt));
  const tag::TagSet population = tag::TagSet::make_random(shape.tags, rng);
  std::vector<std::uint64_t> indices;
  for (std::uint64_t k = 0; k < shape.steal; ++k) {
    indices.push_back(r.steal_from + k);
  }
  return stolen_ids(population, indices);
}

/// The outcome problem of one watch, or empty. The theft must raise exactly
/// one zone_violated alert naming exactly the stolen tags: every epoch
/// after the theft detects it with probability >= alpha, so a watch that
/// stays silent through all of them is a failure, not a miss. The theft persists, so the zone's
/// health machine then escalates and quarantines that same zone.
std::string check_watch(const Shape& shape, const Request& r,
                        const std::vector<const service::TenantAlert*>& alerts,
                        Tally& tally) {
  const service::WatchDone& wd = r.watch_done;
  if (wd.gave_up || wd.epochs_completed != shape.watch_epochs) {
    return "watch gave up or missed epochs";
  }
  ++tally.thefts;
  const std::string violated(
      daemon::to_string(daemon::DaemonAlertKind::kZoneViolated));
  const std::string escalated(
      daemon::to_string(daemon::DaemonAlertKind::kZoneEscalated));
  const std::string quarantined(
      daemon::to_string(daemon::DaemonAlertKind::kZoneQuarantined));
  const service::TenantAlert* theft = nullptr;
  for (const service::TenantAlert* a : alerts) {
    if (a->kind != violated) continue;
    if (theft != nullptr) return "theft alerted more than once";
    theft = a;
  }
  if (theft == nullptr) return "the theft raised no zone_violated alert";
  if (theft->epoch < shape.steal_epoch ||
      sorted(theft->missing) != watch_stolen_ids(shape, r)) {
    return "theft alert did not name exactly the stolen tags";
  }
  for (const service::TenantAlert* a : alerts) {
    if (a != theft &&
        ((a->kind != escalated && a->kind != quarantined) ||
         a->zone != theft->zone)) {
      return "unexpected watch alert: " + a->kind;
    }
  }
  ++tally.detected;
  return "";
}

/// The outcome problem of one run, or empty. Intact runs must come back
/// intact; a theft run is either violated and names exactly the stolen
/// tags (in the verdict and on the tenant feed), or intact: a miss the
/// protocol allows with probability <= 1 - alpha, counted in detect_rate.
std::string check_run(const Request& r, const tag::TagSet& population,
                      const std::vector<const service::TenantAlert*>& alerts,
                      Tally& tally) {
  const service::RunVerdictMsg& v = r.verdict;
  const auto verdict = static_cast<fleet::GlobalVerdict>(v.verdict);
  if (v.aborted) return "run aborted";
  if (r.theft) ++tally.thefts;
  if (verdict == fleet::GlobalVerdict::kIntact) {
    if (v.zones_violated != 0 || !v.missing.empty() || !alerts.empty()) {
      return "intact verdict with theft evidence";
    }
    return "";
  }
  if (!r.theft || verdict != fleet::GlobalVerdict::kViolated) {
    return "verdict " + std::string(fleet::to_string(verdict)) +
           (r.theft ? " on a theft run" : " on an intact run");
  }
  const std::vector<tag::TagId> stolen = stolen_ids(population, r.stolen);
  if (v.zones_violated != 1 || sorted(v.missing) != stolen) {
    return "violated run did not name exactly the stolen tags";
  }
  if (alerts.size() != 1 || sorted(alerts.front()->missing) != stolen) {
    return "theft verdict missing from the tenant feed";
  }
  ++tally.detected;
  return "";
}

/// Checks every request's outcome and each tenant feed; failures go to the
/// report.
Tally verify(const Shape& shape, const Requests& requests,
             const std::vector<tag::TagSet>& populations,
             const LoadGenerator& load, Report& report) {
  Tally tally;
  std::unordered_map<std::uint64_t, std::vector<const service::TenantAlert*>>
      alerts_by_run;
  for (const auto& feed : load.feeds) {
    for (const service::TenantAlert& alert : feed) {
      alerts_by_run[alert.run_id].push_back(&alert);
    }
  }
  const std::vector<const service::TenantAlert*> none;
  for (const Request& r : requests) {
    ++report.attempted;
    const auto it = alerts_by_run.find(r.run_id);
    const auto& alerts = it == alerts_by_run.end() ? none : it->second;
    std::string problem;
    if (r.failed) {
      problem = "request refused (backpressure or error frame)";
    } else if (r.done_us < 0.0) {
      problem = "request never finished";
    } else if (shape.watch) {
      problem = check_watch(shape, r, alerts, tally);
    } else {
      problem = check_run(r, populations[r.conn], alerts, tally);
    }
    if (!problem.empty()) {
      ++report.failed;
      report.fail(shape.name + " request " + std::to_string(r.index) + ": " +
                  problem);
    }
  }
  if (load.feed_gaps != 0) report.fail("tenant feed sequence has gaps");
  if (load.error_frames != 0) report.fail("service sent error frames");
  if (load.run_alert_frames != 0) report.fail("service sent fleet alerts");
  if (load.unexpected_frames != 0) report.fail("unexpected frames");
  return tally;
}

// ------------------------------------------------------------- replay ----

/// Simulated reader air time of the replayed requests, summed from the zone
/// reports the library produced for them.
struct Air {
  double ms = 0.0;
  std::uint64_t runs = 0;  // fleet runs: one per run, one per watch epoch
  std::uint64_t zones = 0;
  std::uint64_t attempts = 0;

  void add_zone(double duration_us, std::uint64_t zone_attempts) {
    ms += duration_us / 1e3;
    ++zones;
    attempts += zone_attempts;
  }
};

/// The memory journal store of a replayed watch, which also keeps the zone
/// records of every fleet run its daemon journals: each epoch's run starts
/// its journal afresh by renaming a new file over the old one, so the
/// finished run is read just before that, and the last one at the end.
class FleetJournalTap final : public storage::MemoryBackend {
 public:
  void rename(const std::string& from, const std::string& to) override {
    if (to == kFleetJournal) harvest();
    storage::MemoryBackend::rename(from, to);
  }

  void harvest() {
    if (!exists(kFleetJournal)) return;
    for (const storage::FleetJournalRecord& record :
         storage::scan_fleet_journal(read(kFleetJournal)).records) {
      if (const auto* zone = std::get_if<storage::FleetZoneRecord>(&record)) {
        zones.push_back(*zone);
      }
    }
  }

  std::vector<storage::FleetZoneRecord> zones;
};

/// Runs the watch in process and returns the problem, or empty when the
/// daemon raised exactly the alerts the tenant feed carried for it. Its
/// epochs' zone air time goes to `air`.
std::string replay_watch(const Shape& shape, const Request& r,
                         const std::string& tenant,
                         const std::vector<service::TenantAlert>& feed,
                         Air& air) {
  FleetJournalTap backend;
  daemon::DaemonConfig config;
  config.seed = r.seed;
  config.name = tenant + "/" + kInventory;
  config.epochs = shape.watch_epochs;
  config.threads = kRunThreads;
  config.backend = &backend;
  config.fleet_journal_name = kFleetJournal;
  daemon::WarehouseConfig warehouse;
  warehouse.protocol = shape.protocol;
  warehouse.initial_tags = shape.tags;
  warehouse.tolerance = shape.tolerance;
  warehouse.zone_capacity = shape.zone_capacity;
  warehouse.rounds = shape.rounds;
  warehouse.identify.enabled = true;
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = shape.steal_epoch,
                                               .enroll = 0,
                                               .decommission = 0,
                                               .steal = shape.steal,
                                               .steal_from = r.steal_from});
  daemon::MonitorDaemon watch(config, warehouse);
  const daemon::DaemonResult result = watch.run();
  backend.harvest();
  if (backend.zones.empty()) return "the daemon journaled no fleet run";
  for (const storage::FleetZoneRecord& zone : backend.zones) {
    air.add_zone(zone.duration_us, zone.attempts);
  }
  air.runs += shape.watch_epochs;

  std::vector<const service::TenantAlert*> fed;
  for (const service::TenantAlert& a : feed) {
    if (a.run_id == r.run_id) fed.push_back(&a);
  }
  bool same = fed.size() == result.alerts.size();
  for (std::size_t k = 0; same && k < fed.size(); ++k) {
    const daemon::DaemonAlert& da = result.alerts[k];
    same = fed[k]->kind == daemon::to_string(da.kind) &&
           fed[k]->epoch == da.epoch && fed[k]->zone == da.zone &&
           fed[k]->detail == da.detail && fed[k]->missing == da.missing_tags;
  }
  return same ? "" : "watch alerts differ from the library daemon";
}

/// Runs the request's fleet run in process and returns the problem, or
/// empty when the service answered exactly what the library computes. The
/// zones' air time goes to `air`.
std::string replay_run(const Shape& shape, const server::GroupPlan& plan,
                       const Request& r, const std::string& tenant,
                       const tag::TagSet& population, Air& air) {
  fleet::FleetConfig config;
  config.seed = r.seed;
  config.threads = kRunThreads;
  config.fleet_name = tenant;
  fleet::FleetOrchestrator orchestrator(std::move(config));
  (void)orchestrator.submit(
      make_spec(shape, population, plan, r.stolen, r.theft));
  const fleet::FleetResult result = orchestrator.run();
  std::vector<tag::TagId> missing;
  std::uint64_t violated = 0;
  for (const fleet::ZoneReport& zone : result.inventories.at(0).zones) {
    if (zone.status == fleet::ZoneStatus::kViolated) ++violated;
    missing.insert(missing.end(), zone.identification.missing.begin(),
                   zone.identification.missing.end());
    air.add_zone(zone.duration_us, zone.attempts);
  }
  ++air.runs;
  if (static_cast<std::uint8_t>(result.verdict) != r.verdict.verdict ||
      violated != r.verdict.zones_violated || missing != r.verdict.missing) {
    return "service verdict differs from the library";
  }
  return "";
}

/// The first `shape.replay` latency-phase requests again, in process: the
/// service must have answered exactly what the library computes, and the
/// library's zone reports give the simulated air time the service does not
/// report.
Air replay(const Shape& shape, const server::GroupPlan& plan,
           const Requests& requests, const Phase& phase,
           const std::vector<tag::TagSet>& populations,
           const std::vector<std::vector<service::TenantAlert>>& feeds,
           Report& report) {
  Air air;
  std::unordered_map<std::uint64_t, const Request*> by_index;
  for (std::size_t i = phase.first; i < phase.end; ++i) {
    by_index.emplace(requests[i].index, &requests[i]);
  }
  for (std::uint64_t i = 0; i < shape.replay; ++i) {
    const auto it = by_index.find(i);
    if (it == by_index.end() || it->second->done_us < 0.0 ||
        it->second->failed) {
      report.fail("replay prefix request " + std::to_string(i) +
                  " was not served");
      continue;
    }
    const Request& r = *it->second;
    const std::string tenant = tenant_name(r.conn);
    const std::string problem =
        shape.watch ? replay_watch(shape, r, tenant, feeds[r.conn], air)
                    : replay_run(shape, plan, r, tenant, populations[r.conn],
                                 air);
    if (!problem.empty()) {
      report.fail(problem + " for request " + std::to_string(i));
    }
  }
  return air;
}

// ------------------------------------------------------------ metrics ----

double delta(const Phase& phase, std::string_view family) {
  return phase.after.total(family) - phase.before.total(family);
}

/// Quantile of the observations a histogram family gained during the phase,
/// interpolated inside buckets the way obs::Histogram::quantile does.
double histogram_quantile(const Phase& phase, std::string_view family,
                          double q) {
  const auto after = phase.after.buckets(family);
  const auto before = phase.before.buckets(family);
  std::vector<double> counts;  // per bucket, this phase only
  double previous = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double cumulative =
        after[i].second - (i < before.size() ? before[i].second : 0.0);
    counts.push_back(cumulative - previous);
    previous = cumulative;
  }
  const double total = previous;
  if (total <= 0.0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * total));
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] >= rank) {
      const double lo = i == 0 ? 0.0 : after[i - 1].first;
      const double hi = i + 1 == after.size() ? lo : after[i].first;
      return lo + (rank - seen) / counts[i] * (hi - lo);
    }
    seen += counts[i];
  }
  return after.empty() ? 0.0 : after.back().first;
}

/// A CPU of the reference host runs either at full speed or about 1.5
/// times slower, in spells of seconds to minutes, as the host's other
/// tenants come and go, and a whole run can fall in a slow spell
/// (README.md, "Noise on the reference host"). A host time measured while
/// reference_us() read `reading_us` is reported at full speed: multiplied
/// by this.
double full_speed_scale(double reading_us, double exponent) {
  return reading_us > 0.0
             ? std::pow(kFullSpeedReferenceUs / reading_us, exponent)
             : 1.0;
}

/// Latency and throughput of a run at the CPU's full speed. The window is
/// cut into kSliceUs slices; a slice's reading is the median of the
/// reference_us() readings taken in it (or in the nearest slice before it
/// that has one), and scales every time measured in the slice.
struct AtFullSpeed {
  double latency_ms = 0.0;  // median scaled latency
  double per_s = 0.0;       // requests finished per scaled second
};

AtFullSpeed at_full_speed(
    const std::vector<std::pair<double, double>>& done_latency,
    const Phase& phase, double exponent) {
  const double span = phase.window_end - phase.window_start;
  const auto slices = static_cast<std::size_t>(std::ceil(span / kSliceUs));
  const auto slice_of = [&](double at) {
    const double k = std::floor((at - phase.window_start) / kSliceUs);
    return static_cast<std::size_t>(
        std::clamp(k, 0.0, static_cast<double>(slices - 1)));
  };
  std::vector<std::vector<double>> readings(slices);
  double before_window = 0.0;  // the last reading of the warm-up
  for (const auto& [at, us] : phase.speed) {
    if (at < phase.window_start) {
      before_window = us;
    } else if (at < phase.window_end) {
      readings[slice_of(at)].push_back(us);
    }
  }
  std::vector<double> scale(slices);
  double reading = before_window;
  for (std::size_t k = 0; k < slices; ++k) {
    if (!readings[k].empty()) reading = median(std::move(readings[k]));
    scale[k] = full_speed_scale(reading, exponent);
  }

  AtFullSpeed out;
  std::vector<double> latencies;
  std::uint64_t finished = 0;
  for (const auto& [done, latency] : done_latency) {
    latencies.push_back(latency * scale[slice_of(done)]);
    if (done >= phase.window_start && done <= phase.window_end) ++finished;
  }
  out.latency_ms = median(std::move(latencies));
  double scaled_us = 0.0;
  for (std::size_t k = 0; k < slices; ++k) {
    scaled_us += std::min(kSliceUs, span - static_cast<double>(k) * kSliceUs) *
                 scale[k];
  }
  out.per_s = static_cast<double>(finished) / (scaled_us / 1e6);
  return out;
}

/// Pins this thread, and so every thread and process it starts later, to
/// the last CPU it may use. One request is in flight at a time, so one CPU
/// is enough; each hand-off between the generator, the service's IO thread
/// and its worker then lands on a CPU that is already running instead of
/// waking an idle one, and the speed readings come from the CPU that does
/// all the work.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (std::size_t cpu = CPU_SETSIZE; cpu > 0; --cpu) {
    if (CPU_ISSET(cpu - 1, &allowed)) {
      cpu_set_t chosen;
      CPU_ZERO(&chosen);
      CPU_SET(cpu - 1, &chosen);
      (void)::sched_setaffinity(0, sizeof chosen, &chosen);
      return;
    }
  }
}

}  // namespace

// -------------------------------------------------------------- shapes ----

std::vector<Shape> all_shapes() {
  Shape trp;
  trp.name = "svc_trp";
  trp.replay = 200;
  trp.speed_exponent = 0.9;

  Shape utrp = trp;
  utrp.name = "svc_utrp";
  utrp.protocol = fleet::Protocol::kUtrp;
  utrp.speed_exponent = 0.75;
  utrp.replay = 40;

  Shape watch;
  watch.name = "svc_watch";
  watch.watch = true;
  watch.tags = 2000;
  watch.tolerance = 16;
  watch.steal = 18;
  watch.theft_every = 1;
  watch.replay = 4;
  watch.tail_quantile = 0.90;

  Shape big;
  big.name = "fleet_2m";
  big.tenants = 1;
  big.tags = 2000000;
  big.zone_capacity = 1000000;
  big.tolerance = 1000;
  big.steal = 2000;
  big.theft_every = 1;
  big.theft_zone = 1;
  big.speed_exponent = 0.5;
  big.max_frame_bytes = 64u << 20;
  big.replay = 2;
  big.tail_quantile = 0.75;
  return {trp, utrp, watch, big};
}

Shape smoke(Shape shape) {
  if (shape.name == "fleet_2m") {
    shape.tags = 20000;
    shape.zone_capacity = 10000;
    shape.tolerance = 100;
    shape.steal = 200;
    shape.replay = 1;
  } else if (shape.watch) {
    shape.tags = 400;
    shape.zone_capacity = 50;
    shape.watch_epochs = 8;
    shape.steal_epoch = 4;
  } else {
    shape.tags = 200;
    shape.zone_capacity = 50;
    shape.replay = shape.protocol == fleet::Protocol::kTrp ? 20 : 8;
  }
  return shape;
}

service::ServiceConfig service_config(const Shape& shape,
                                      obs::MetricsRegistry* registry) {
  service::ServiceConfig config;
  config.workers = 1;  // one request is in flight
  config.run_threads = kRunThreads;
  config.max_frame_bytes = shape.max_frame_bytes;
  config.max_watch_epochs = shape.watch_epochs;
  // Token bucket wide open: admission is bounded by the in-flight limits
  // and the deferred queue only.
  config.tokens_per_sec = 1e12;
  config.token_capacity = 1e12;
  config.max_inflight = 16;
  config.max_inflight_per_tenant = 4;
  config.max_deferred = 4096;
  config.metrics = registry;
  // Watches journal in memory: file journals on a shared disk made watch
  // latency drift within a run. daemon.epoch_ms.file.p50 measures them.
  return config;
}

int serve(const Options& options) {
  const std::vector<Shape> shapes = all_shapes();
  const auto it = std::find_if(shapes.begin(), shapes.end(), [&](const Shape& s) {
    return s.name == options.workload;
  });
  if (it == shapes.end()) return 2;
  const Shape shape = options.smoke ? smoke(*it) : *it;
  obs::MetricsRegistry registry;
  service::MonitorService svc(service_config(shape, &registry));
  svc.start();
  std::printf("%u %u\n", static_cast<unsigned>(svc.port()),
              static_cast<unsigned>(svc.http_port()));
  std::fflush(stdout);
  char buf[256];
  while (::read(STDIN_FILENO, buf, sizeof buf) > 0) {
  }
  const service::ServiceStats stats = svc.stop();
  return stats.drained_cleanly ? 0 : 1;
}

server::GroupPlan plan_for(const Shape& shape) {
  return server::plan_groups({.total_tags = shape.tags,
                              .total_tolerance = shape.tolerance,
                              .alpha = 0.95,
                              .max_group_size = shape.zone_capacity,
                              .model = math::EmptySlotModel::kPoissonApprox});
}

fleet::InventorySpec make_spec(const Shape& shape,
                               const tag::TagSet& population,
                               const server::GroupPlan& plan,
                               std::vector<std::uint64_t> stolen,
                               bool identify) {
  fleet::InventorySpec spec;
  spec.name = kInventory;
  spec.protocol = shape.protocol;
  spec.tags = population;
  spec.plan = plan;
  spec.stolen = std::move(stolen);
  spec.alpha = 0.95;
  spec.rounds = shape.rounds;
  spec.identify.enabled = identify;
  return spec;
}

// ------------------------------------------------------------ workload ----

Report run_workload(const Shape& shape, const Options& options) {
  Report report;
  // A traced run is a third as long: it exists for the layer numbers.
  const double scale = options.trace ? 1.0 / 3.0 : 1.0;
  const double min_phase = options.smoke ? 0.2 : 1.0;
  const double seconds = std::max(options.seconds * scale, min_phase);
  const double warm = options.smoke ? 0.1 : 1.0;
  const ScratchDir scratch(options.work_dir + "/run-" +
                           std::to_string(::getpid()));
  pin_to_one_cpu();

  // Inputs, from the seed only. The service enrolls bare ids (counter 0),
  // so the benchmark's copy of each population is built the same way.
  const server::GroupPlan plan = plan_for(shape);
  std::vector<tag::TagSet> populations;
  std::vector<service::EnrollRequest> enrolls;
  for (std::size_t c = 0; c < shape.tenants; ++c) {
    util::Rng rng(util::derive_seed(options.seed, c, kPopulationSalt));
    std::vector<tag::TagId> ids =
        tag::TagSet::make_random(shape.tags, rng).ids();
    populations.emplace_back(std::vector<tag::Tag>(ids.begin(), ids.end()));
    service::EnrollRequest enroll;
    enroll.inventory = kInventory;
    enroll.protocol = static_cast<std::uint8_t>(shape.protocol);
    enroll.tolerance = shape.tolerance;
    enroll.alpha = 0.95;
    enroll.zone_capacity = shape.zone_capacity;
    enroll.rounds = shape.rounds;
    enroll.tags = std::move(ids);
    enrolls.push_back(std::move(enroll));
  }

  // Set-up: start the service process, connect, enroll, subscribe. Each
  // one is scaled to the CPU's full speed by a reading taken just before.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  const double setup_start = now_us();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          now_us() - setup_start < kSetupBudgetUs)) {
    dep.reset();
    const double scale_now =
        full_speed_scale(reference_us(), shape.speed_exponent);
    const double t0 = now_us();
    dep = deploy(shape, options, enrolls);
    setup_s.push_back((now_us() - t0) / 1e6 * scale_now);
  }
  enrolls.clear();

  Requests requests;
  LoadContext ctx{shape, plan, options.seed, options.trace, *dep, requests};
  const Phase phase = closed_loop(ctx, warm, seconds);
  const double peak_rss = dep->service->peak_rss_mib();
  if (dep->service->stop() != 0) report.fail("service did not drain cleanly");

  const Tally tally =
      verify(shape, requests, populations, *dep->load, report);
  std::vector<double> ping_rtt = dep->load->ping_rtt_us;
  const std::vector<std::vector<service::TenantAlert>> feeds =
      std::move(dep->load->feeds);
  dep.reset();
  const Air air =
      replay(shape, plan, requests, phase, populations, feeds, report);

  std::vector<std::pair<double, double>> latency_ms;  // (done, latency)
  std::vector<double> admit_us;
  std::vector<double> lag_ms;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t answered = 0;  // warm-up included, as the feed count is
  std::uint64_t in_window = 0;  // finished inside the window
  double depth_sum = 0.0;
  for (std::size_t i = phase.first; i < phase.end; ++i) {
    const Request& r = requests[i];
    if (r.failed || r.done_us < 0.0) continue;
    ++answered;
    if (r.done_us >= phase.window_start && r.done_us <= phase.window_end) {
      ++in_window;
    }
    if (!r.measured) continue;
    latency_ms.emplace_back(r.done_us, (r.done_us - r.sent_us) / 1e3);
    lag_ms.push_back((r.sent_us - r.due_us) / 1e3);
    if (r.admitted_us >= 0.0) {
      ++admitted;
      admit_us.push_back(r.admitted_us - r.sent_us);
      if (r.deferred) ++deferred;
      depth_sum += static_cast<double>(r.queue_depth);
    }
  }
  if (latency_ms.empty() || in_window == 0) {
    report.fail("no request finished in the window");
  }
  const auto per = [](double value, std::uint64_t count) {
    return count == 0 ? 0.0 : value / static_cast<double>(count);
  };
  // A watch counts as its epochs: each is one fleet run.
  const std::uint64_t runs_per_request = shape.watch ? shape.watch_epochs : 1;
  const AtFullSpeed full =
      at_full_speed(latency_ms, phase, shape.speed_exponent);
  const double cpu_ms_per_run =
      per(phase.service_cpu_ms, in_window * runs_per_request);

  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("runs_per_s",
               full.per_s * static_cast<double>(runs_per_request), "1/s");
    report.add("latency_p50_ms", full.latency_ms, "ms");
    report.add("peak_rss_mib", peak_rss, "MiB");
    report.add("air_ms_per_run", per(air.ms, air.runs), "ms");
    report.add("detect_rate",
               per(static_cast<double>(tally.detected), tally.thefts),
               "share");
    return report;
  }

  // ---- per-layer numbers: the traced run's own traffic ----
  const double runs_done = delta(phase, "rfidmon_service_runs_total");
  const double lookups = delta(phase, "rfidmon_expected_cache_total");
  const double hits =
      phase.after.labeled("rfidmon_expected_cache_total", "\"hit\"") -
      phase.before.labeled("rfidmon_expected_cache_total", "\"hit\"");
  report.add("service.admit_rtt_us.p50", quantile(admit_us, 0.5), "us");
  report.add("service.admit_rtt_us.p99", quantile(admit_us, 0.99), "us");
  report.add("service.ping_rtt_us.p50", quantile(ping_rtt, 0.5), "us");
  report.add("service.ping_rtt_us.p99", quantile(ping_rtt, 0.99), "us");
  report.add("service.deferred_share",
             per(static_cast<double>(deferred), admitted), "share");
  report.add("service.queue_depth.mean", per(depth_sum, admitted), "count");
  report.add("service.server_latency_us.p50",
             histogram_quantile(phase, "rfidmon_service_run_latency_us", 0.5),
             "us");
  report.add("service.server_latency_us.p99",
             histogram_quantile(phase, "rfidmon_service_run_latency_us",
                                0.99),
             "us");
  report.add("service.frames_per_run",
             runs_done <= 0.0
                 ? 0.0
                 : delta(phase, "rfidmon_service_frames_total") / runs_done,
             "count");
  report.add("service.feed_alerts_per_run",
             per(static_cast<double>(phase.feed_after - phase.feed_before),
                 answered),
             "count");
  report.add("server.expected_cache_hit_share",
             lookups <= 0.0 ? 0.0 : hits / lookups, "share");
  report.add("fleet.attempts_per_zone",
             per(static_cast<double>(air.attempts), air.zones), "count");
  report.add("proc.cpu_ms_per_run", cpu_ms_per_run, "ms");
  report.add("gen.lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  // The traced run's own client view, over every measured request, for
  // comparison with the server-side histogram of the same window.
  std::vector<double> all_ms;
  for (const auto& sample : latency_ms) all_ms.push_back(sample.second);
  report.add("gen.latency_p50_ms", quantile(all_ms, 0.5), "ms");
  report.add("gen.latency_tail_ms", quantile(all_ms, shape.tail_quantile),
             "ms");

  // ---- per-layer numbers: direct calls on the workload's shape ----
  ProbeInput probe;
  probe.shape = &shape;
  probe.population = &populations.front();
  probe.plan = plan;
  probe.seed = options.seed;
  probe.dir = scratch.path() + "/probes";
  probe.budget_s = std::max(options.seconds * 0.4, min_phase);
  // Tenant 0's first theft request in the request sequence, whether or not
  // the load got that far, so the probes do not depend on timing.
  constexpr std::uint64_t kTheftSearch = 1u << 16;
  for (std::uint64_t i = 0; i < kTheftSearch && probe.stolen.empty();
       i += shape.tenants) {
    const Request r = make_request(shape, plan, options.seed, i);
    if (!r.theft) continue;
    probe.stolen = r.stolen;
    for (std::uint64_t k = 0; shape.watch && k < shape.steal; ++k) {
      probe.stolen.push_back(r.steal_from + k);
    }
  }
  if (probe.stolen.empty()) {
    report.fail("no theft request to probe with");
    return report;
  }
  run_probes(probe, report);
  return report;
}

}  // namespace rfid::bench
