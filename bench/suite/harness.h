// rfidmon_bench: one binary, four service workloads, end-to-end and
// per-layer metrics. See README.md for the workloads, the metric tables and
// the comparison protocol.
//
// Everything here measures the library from outside. The monitoring
// service runs in a process of its own (this binary in --serve mode), so
// its memory and CPU are not mixed with the load generator's; the load
// crosses loopback sockets; per-layer numbers come from scraping the
// service's /metrics endpoint and from timed calls into public functions.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fleet/fleet.h"
#include "service/framing.h"
#include "service/messages.h"
#include "service/service.h"
#include "service/socket.h"
#include "tag/tag_set.h"

namespace rfid::bench {

// ------------------------------------------------------------- shapes ----

/// The benchmark and its service process run on one CPU (see run_workload)
/// with one request in flight, so every fleet run, in the service and in
/// the benchmark's own calls, uses one thread.
inline constexpr unsigned kRunThreads = 1;

/// One workload: what each tenant enrolls, what each request asks for, and
/// how the service runs. Every workload is a closed loop with one request
/// in flight; request i goes to tenant i mod tenants. Sizes are the
/// full-run sizes; smoke() shrinks them.
struct Shape {
  std::string name;
  fleet::Protocol protocol = fleet::Protocol::kTrp;
  bool watch = false;  // requests are StartWatch, not StartRun
  std::uint64_t tenants = 4;
  std::uint64_t tags = 1000;  // per tenant inventory
  std::uint64_t zone_capacity = 250;
  std::uint64_t tolerance = 8;  // global M
  std::uint64_t rounds = 1;
  /// Theft requests steal this many tags of one zone (a watch: at
  /// steal_epoch) and ask for the identification drill-down.
  std::uint64_t steal = 12;
  /// Every `theft_every`-th request (by a seed-independent hash of its
  /// index) is a theft, so the request mix is the same for every seed.
  std::uint64_t theft_every = 20;
  /// Theft runs steal from this zone; -1 picks the zone from the seed.
  int theft_zone = -1;
  std::uint64_t watch_epochs = 16;
  std::uint64_t steal_epoch = 8;
  /// How the workload's time follows the CPU's speed: the slope of log
  /// latency over log reference_us() on the reference host (see
  /// README.md). Host times are reported at the CPU's full speed.
  double speed_exponent = 0.75;
  std::uint32_t max_frame_bytes = 1u << 20;
  /// Requests replayed in-process after the load for the air metrics and
  /// the service-vs-library cross-check (a multiple of `tenants`).
  std::uint64_t replay = 200;
  /// Tail percentile reported as gen.latency_tail_ms: the highest that
  /// leaves about ten samples beyond it in a traced run.
  double tail_quantile = 0.99;
};

[[nodiscard]] std::vector<Shape> all_shapes();
[[nodiscard]] Shape smoke(Shape shape);
/// The MonitorService configuration every workload runs under.
[[nodiscard]] service::ServiceConfig service_config(
    const Shape& shape, obs::MetricsRegistry* registry);

struct Options {
  std::string workload;
  std::uint64_t seed = 20080617;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  bool serve = false;  // run the service process for a workload
  std::string work_dir = ".bench_build/tmp";
};

// ------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few correctness failures
  std::vector<Metric> metrics;

  void fail(std::string what);
  void add(std::string name, double value, std::string unit);
};

// ------------------------------------------------------------ helpers ----

[[nodiscard]] double now_us();
/// Linear-interpolated quantile of `values` (sorted in place).
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double current_rss_mib();
/// Runs the reference kernel, a fixed arithmetic loop that no change to the
/// program under test can alter, and returns how long it took in µs: a
/// reading of how fast the calling thread's CPU runs right now.
[[nodiscard]] double reference_us();

// ----------------------------------------------------- service process ----

/// One /metrics scrape: exposition series name (with labels) -> value.
struct Scrape {
  std::unordered_map<std::string, double> values;

  /// Sum over every series of a family.
  [[nodiscard]] double total(std::string_view family) const;
  /// Sum over the family's series whose label block contains `label`.
  [[nodiscard]] double labeled(std::string_view family,
                               std::string_view label) const;
  /// Histogram family: (upper edge, cumulative count), ascending.
  [[nodiscard]] std::vector<std::pair<double, double>> buckets(
      std::string_view family) const;
};

/// The service under test, running as a child process of this binary in
/// --serve mode. Closing its stdin asks it to drain and exit; the
/// destructor does that and waits for the process.
class ServiceProcess {
 public:
  explicit ServiceProcess(const Options& options);
  ~ServiceProcess();
  ServiceProcess(const ServiceProcess&) = delete;
  ServiceProcess& operator=(const ServiceProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// User plus system CPU the process has used.
  [[nodiscard]] double cpu_ms() const;
  /// The process's peak resident set (VmHWM).
  [[nodiscard]] double peak_rss_mib() const;
  [[nodiscard]] Scrape scrape() const;
  /// Drains and waits; returns the exit status (0 = clean).
  int stop();

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int exit_status_ = 0;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
};

/// --serve mode: runs the workload's service until stdin closes.
int serve(const Options& options);

// ------------------------------------------------------------ requests ----

/// One request and everything observed about it. Content derives from
/// (seed, phase, index) only, never from timing.
struct Request {
  std::uint64_t index = 0;
  std::uint32_t conn = 0;
  bool theft = false;
  bool measured = false;  // inside a timed window (not warm-up)
  bool failed = false;
  bool deferred = false;
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> stolen;  // runs: enrolled indices, ascending
  std::uint64_t steal_from = 0;       // watches
  /// When the previous request finished and freed the slot.
  double due_us = 0.0;
  double sent_us = 0.0;
  double admitted_us = -1.0;
  double done_us = -1.0;
  std::uint64_t run_id = 0;
  std::uint64_t queue_depth = 0;
  service::RunVerdictMsg verdict;
  service::WatchDone watch_done;
};

/// A deque, so growth never moves records (or stalls the generator).
using Requests = std::deque<Request>;

// -------------------------------------------------------------- load ----

/// The load generator: one thread, one poll loop, up to four non-blocking
/// loopback connections. It pipelines requests per connection and matches
/// RunAdmitted/Backpressure to requests in send order (the service answers
/// each start request before reading the next frame of that connection).
class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, std::size_t connections,
         std::uint32_t max_payload);

  // Blocking set-up conversation on one connection.
  void hello(std::size_t c, const std::string& tenant);
  void enroll(std::size_t c, const service::EnrollRequest& request);
  void subscribe(std::size_t c);

  /// Sends requests[slot]'s start frame (StartRun or StartWatch payload).
  void start(Requests& requests, std::size_t slot, service::FrameType type,
             const std::vector<std::byte>& payload);
  void ping(std::size_t c);
  /// Pings every connection and waits for the pongs: frames the service
  /// queued before them (feed alerts trailing a verdict) have then arrived.
  void sync(Requests& requests);

  /// One poll round (waits at most until `deadline_us`); returns the slots
  /// of requests that finished (verdict, watch done, or refused).
  std::vector<std::size_t> step(Requests& requests, double deadline_us);

  [[nodiscard]] std::uint64_t outstanding() const;

  // Observations across the whole session.
  std::uint64_t error_frames = 0;
  std::uint64_t run_alert_frames = 0;
  std::uint64_t feed_gaps = 0;
  std::uint64_t unexpected_frames = 0;
  std::vector<double> ping_rtt_us;
  /// Tenant-feed alerts, per connection, in sequence order.
  std::vector<std::vector<service::TenantAlert>> feeds;

 private:
  struct Conn {
    service::Socket sock;
    service::FrameReader reader;
    std::vector<std::byte> out;
    std::size_t out_off = 0;
    std::deque<service::Frame> inbox;  // set-up replies not yet consumed
    std::deque<std::size_t> awaiting_admission;
    std::unordered_map<std::uint64_t, std::size_t> running;
    std::deque<std::pair<std::uint64_t, double>> pings;
    std::uint64_t sync_nonce = 0;  // outstanding sync() ping, 0 = none
    std::uint64_t next_sequence = 0;
    std::uint64_t outstanding = 0;
    explicit Conn(service::Socket s, std::uint32_t max_payload)
        : sock(std::move(s)), reader(max_payload) {}
  };

  void queue(std::size_t c, service::FrameType type,
             const std::vector<std::byte>& payload);
  void flush(Conn& conn);
  /// Reads what is available and parses frames into `frames`.
  void receive(Conn& conn, std::vector<service::Frame>& frames);
  service::Frame await(std::size_t c, service::FrameType wanted);
  void handle(std::size_t c, const service::Frame& frame, Requests& requests,
              std::vector<std::size_t>& done);

  std::vector<Conn> conns_;
  std::uint64_t next_nonce_ = 1;
};

// ----------------------------------------------------------- workloads ----

/// Runs one workload (set-up, load, checks, and in trace mode the layer
/// probes) and returns its report.
[[nodiscard]] Report run_workload(const Shape& shape, const Options& options);

/// Per-layer probes on the workload's shape (trace mode only).
struct ProbeInput {
  const Shape* shape = nullptr;
  const tag::TagSet* population = nullptr;  // tenant 0's enrolled set
  server::GroupPlan plan;
  std::vector<std::uint64_t> stolen;  // a theft request's stolen indices
  std::uint64_t seed = 0;
  std::string dir;  // scratch directory for file-backed journals
  double budget_s = 5.0;
};
void run_probes(const ProbeInput& input, Report& report);

/// The InventorySpec the service builds for a run of this shape (what
/// MonitorService::launch does with an enrolled inventory).
[[nodiscard]] fleet::InventorySpec make_spec(const Shape& shape,
                                             const tag::TagSet& population,
                                             const server::GroupPlan& plan,
                                             std::vector<std::uint64_t> stolen,
                                             bool identify);
[[nodiscard]] server::GroupPlan plan_for(const Shape& shape);

}  // namespace rfid::bench
