#include <algorithm>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.h"
#include "harness.h"
#include "hash/slot_hash.h"
#include "obs/catalog.h"
#include "protocol/identification.h"
#include "protocol/trp.h"
#include "server/inventory_server.h"
#include "storage/backend.h"
#include "tag/columnar.h"
#include "util/random.h"

namespace rfid::bench {

namespace {

constexpr std::uint64_t kProbeSalt = 0x70726f6265ULL;  // "probe"

/// Keeps a computed value observable so the timed call is not optimized out.
volatile std::uint64_t g_sink = 0;

/// Calls `fn` at least `min_reps` times and until `budget_s` is spent (at
/// most `max_reps`); returns each call's duration in ms.
template <typename Fn>
std::vector<double> timed_ms(int min_reps, int max_reps, double budget_s,
                             Fn&& fn) {
  std::vector<double> samples;
  const double start = now_us();
  for (int rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps && now_us() - start > budget_s * 1e6) break;
    samples.push_back(fn(rep));
  }
  return samples;
}

/// Median per-call time in microseconds of a call too short to time alone:
/// batches grow until one takes >= 1 ms, then batches run for the budget.
template <typename Fn>
double per_call_us(double budget_s, Fn&& fn) {
  std::uint64_t batch = 1;
  std::vector<double> per_call;
  const double start = now_us();
  while (per_call.size() < 5 || now_us() - start < budget_s * 1e6) {
    const double t0 = now_us();
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    const double took = now_us() - t0;
    if (took < 1e3 && per_call.empty()) {
      batch *= 2;
      continue;
    }
    per_call.push_back(took / static_cast<double>(batch));
    if (per_call.size() >= 200) break;
  }
  return median(per_call);
}

double since_ms(double t0) { return (now_us() - t0) / 1e3; }

double directory_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

}  // namespace

void run_probes(const ProbeInput& in, Report& report) {
  const Shape& shape = *in.shape;
  const tag::TagSet& population = *in.population;
  const double budget = in.budget_s;
  const bool big = shape.tags >= 1000000;
  const hash::SlotHasher hasher{};

  // ---- tag: the per-run population copy the service makes ----
  {
    std::vector<double> copy = timed_ms(3, 50, budget * 0.05, [&](int) {
      fleet::InventorySpec spec;
      const double t0 = now_us();
      spec.tags = population;
      const double ms = since_ms(t0);
      g_sink = g_sink + spec.tags.size();
      return ms;
    });
    report.add("tag.copy_ms.p50", median(copy), "ms");
  }

  // ---- fleet: submit and run on the service's spec for a theft run. The
  // service runs both on a long-lived worker thread, and per-thread
  // allocator state moves these times, so the probe does too. ----
  {
    const auto config_for = [&](int rep) {
      fleet::FleetConfig config;
      config.seed = util::derive_seed(in.seed, static_cast<std::uint64_t>(rep),
                                      kProbeSalt);
      config.threads = kRunThreads;
      config.fleet_name = "probe";
      return config;
    };
    std::vector<double> submit;
    std::vector<double> run;
    std::vector<double> detect;
    double rss_after_submit = 0.0;
    std::exception_ptr error;
    std::thread worker([&] {
      try {
        (void)timed_ms(3, 30, budget * 0.3, [&](int rep) {
          fleet::InventorySpec spec =
              make_spec(shape, population, in.plan, in.stolen, true);
          fleet::FleetOrchestrator orchestrator(config_for(rep));
          const double t0 = now_us();
          (void)orchestrator.submit(std::move(spec));
          submit.push_back(since_ms(t0));
          rss_after_submit = std::max(rss_after_submit, current_rss_mib());
          const double t1 = now_us();
          const fleet::FleetResult result = orchestrator.run();
          run.push_back(since_ms(t1));
          g_sink = g_sink + result.tags_named;
          return 0.0;
        });
        detect = timed_ms(3, 30, budget * 0.1, [&](int rep) {
          fleet::FleetOrchestrator orchestrator(config_for(rep));
          (void)orchestrator.submit(
              make_spec(shape, population, in.plan, in.stolen, false));
          const double t0 = now_us();
          const fleet::FleetResult result = orchestrator.run();
          const double ms = since_ms(t0);
          g_sink = g_sink + result.zones;
          return ms;
        });
      } catch (...) {
        error = std::current_exception();
      }
    });
    worker.join();
    if (error != nullptr) std::rethrow_exception(error);
    report.add("fleet.submit_ms.p50", median(submit), "ms");
    report.add("fleet.run_ms.p50", median(run), "ms");
    report.add("fleet.detect_ms.p50", median(detect), "ms");
    report.add("proc.rss_after_submit_mib", rss_after_submit, "MiB");
  }

  // The theft zone: where the probes' stolen tags live.
  std::uint64_t zone = 0;
  std::uint64_t zone_first = 0;
  while (zone + 1 < in.plan.zones.size() &&
         zone_first + in.plan.zones[zone].tags <= in.stolen.front()) {
    zone_first += in.plan.zones[zone].tags;
    ++zone;
  }
  const server::ZonePlan& zp = in.plan.zones[zone];
  const std::span<const tag::Tag> zone_tags =
      population.tags().subspan(zone_first, zp.tags);
  const tag::ColumnarTagSet columnar = tag::ColumnarTagSet::from_tags(zone_tags);

  // ---- tag: the bulk expected-bitstring kernel on one zone ----
  {
    std::uint64_t r = 1;
    const double us = per_call_us(budget * 0.05, [&] {
      g_sink = g_sink + tag::bulk_trp_frame(hasher, columnar.slot_words(), r++,
                                            zp.frame_size)
                            .size();
    });
    report.add("tag.bulk_trp_frame_ms.p50", us / 1e3, "ms");
  }

  // ---- server: planning, cold expected build, cached re-verify ----
  {
    const double plan_us = per_call_us(budget * 0.05, [&] {
      g_sink = g_sink + plan_for(shape).total_slots;
    });
    report.add("server.plan_groups_us", plan_us, "us");

    server::InventoryServer inventory(hasher);
    server::GroupConfig config;
    config.name = "probe";
    config.policy = protocol::MonitoringPolicy{zp.tolerance, 0.95};
    const server::GroupId group = inventory.enroll(
        tag::TagSet(std::vector<tag::Tag>(zone_tags.begin(), zone_tags.end())),
        config);
    const protocol::TrpServer oracle(columnar, config.policy, hasher);
    util::Rng rng(util::derive_seed(in.seed, 1, kProbeSalt));
    protocol::TrpChallenge challenge;
    bits::Bitstring honest;
    std::vector<double> cold = timed_ms(3, 50, budget * 0.05, [&](int) {
      challenge = inventory.challenge_trp(group, rng);
      honest = oracle.expected_bitstring(challenge);
      const double t0 = now_us();
      const protocol::Verdict verdict =
          inventory.submit_trp(group, challenge, honest);
      const double ms = since_ms(t0);
      if (!verdict.intact) report.fail("probe: honest bitstring rejected");
      return ms;
    });
    const double cached_us = per_call_us(budget * 0.05, [&] {
      g_sink = g_sink + inventory.submit_trp(group, challenge, honest).intact;
    });
    report.add("server.expected_build_ms", median(cold), "ms");
    report.add("server.cached_verify_us", cached_us, "us");
  }

  // ---- protocol: a filter-first identification campaign on the zone ----
  {
    std::vector<tag::Tag> present;
    std::uint64_t stolen_here = 0;
    std::size_t next = 0;
    for (std::uint64_t i = 0; i < zp.tags; ++i) {
      while (next < in.stolen.size() && in.stolen[next] < zone_first + i) {
        ++next;
      }
      if (next < in.stolen.size() && in.stolen[next] == zone_first + i) {
        ++stolen_here;
      } else {
        present.push_back(zone_tags[i]);
      }
    }
    const auto identifier = protocol::make_identification_protocol(
        protocol::IdentifyProtocolKind::kFilterFirst, {});
    protocol::IdentifyResult first;
    std::vector<double> identify = timed_ms(3, 30, budget * 0.1, [&](int rep) {
      util::Rng rng(util::derive_seed(
          in.seed, static_cast<std::uint64_t>(rep) + 2, kProbeSalt));
      const double t0 = now_us();
      protocol::IdentifyResult result =
          identifier->identify(columnar.ids(), present, hasher, rng);
      const double ms = since_ms(t0);
      if (result.missing.size() != stolen_here) {
        report.fail("probe: identification did not name the stolen tags");
      }
      if (rep == 0) first = std::move(result);
      return ms;
    });
    report.add("protocol.identify_ms.p50", median(identify), "ms");
    report.add("protocol.identify_slots",
               static_cast<double>(first.total_slots), "slots");
    report.add("protocol.identify_rounds", static_cast<double>(first.rounds),
               "count");
  }

  // ---- daemon and storage: epochs on file vs memory journals, resume ----
  {
    const std::uint64_t epochs = big ? 2 : 8;
    daemon::WarehouseConfig warehouse;
    warehouse.protocol = shape.protocol;
    warehouse.initial_tags = shape.tags;
    warehouse.tolerance = shape.tolerance;
    warehouse.zone_capacity = shape.zone_capacity;
    warehouse.rounds = shape.rounds;
    warehouse.identify.enabled = true;
    warehouse.churn.push_back(daemon::ChurnEvent{
        .epoch = epochs / 2,
        .enroll = 0,
        .decommission = 0,
        .steal = std::min<std::uint64_t>(shape.steal, zp.tags),
        .steal_from = zone_first});
    const auto daemon_config = [&](storage::StorageBackend* backend) {
      daemon::DaemonConfig config;
      config.seed = util::derive_seed(in.seed, 3, kProbeSalt);
      config.name = "probe";
      config.epochs = epochs;
      config.threads = kRunThreads;
      config.backend = backend;
      return config;
    };
    const auto check = [&](const daemon::DaemonResult& result) {
      if (result.gave_up || result.epochs_completed != epochs) {
        report.fail("probe: daemon did not complete its epochs");
      }
    };
    const int max_reps = big ? 1 : 5;
    const double share = budget * 0.08;
    std::vector<double> memory = timed_ms(1, max_reps, share, [&](int) {
      storage::MemoryBackend backend;
      daemon::MonitorDaemon d(daemon_config(&backend), warehouse);
      const double t0 = now_us();
      const daemon::DaemonResult result = d.run();
      const double ms = since_ms(t0) / static_cast<double>(epochs);
      check(result);
      return ms;
    });
    double journal_bytes = 0.0;
    double checkpoints = 0.0;
    std::vector<double> resume;
    std::vector<double> file = timed_ms(1, max_reps, share, [&](int rep) {
      const std::string dir = in.dir + "/daemon-" + std::to_string(rep);
      std::filesystem::remove_all(dir);
      double ms = 0.0;
      {
        storage::FileBackend backend(dir);
        obs::MetricsRegistry registry;
        daemon::DaemonConfig config = daemon_config(&backend);
        config.metrics = &registry;
        daemon::MonitorDaemon d(config, warehouse);
        const double t0 = now_us();
        const daemon::DaemonResult result = d.run();
        ms = since_ms(t0) / static_cast<double>(epochs);
        check(result);
        checkpoints = static_cast<double>(
                          obs::catalog::daemon_checkpoints_total(registry)
                              .value()) /
                      static_cast<double>(epochs);
      }
      journal_bytes = directory_bytes(dir) / static_cast<double>(epochs);
      // Reopen the finished journal: every epoch is checkpointed, so run()
      // only replays it.
      storage::FileBackend backend(dir);
      daemon::MonitorDaemon reopened(daemon_config(&backend), warehouse);
      const daemon::DaemonResult replayed = reopened.run();
      resume.push_back(replayed.last_resume_us);
      check(replayed);
      return ms;
    });
    report.add("daemon.epoch_ms.file.p50", median(file), "ms");
    report.add("daemon.epoch_ms.memory.p50", median(memory), "ms");
    report.add("daemon.resume_us.p50", median(resume), "us");
    report.add("daemon.checkpoints_per_epoch", checkpoints, "count");
    report.add("storage.journal_bytes_per_epoch", journal_bytes, "bytes");
  }
}

}  // namespace rfid::bench
