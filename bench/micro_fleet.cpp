// Fleet throughput microbenchmark: complete wire sessions per second as a
// function of worker-thread count. Each iteration builds the same seeded
// 64-zone fleet (4 inventories of 16 TRP zones) and runs it to a verdict;
// items processed = zones, so google-benchmark's items_per_second column
// reads directly as sessions/sec. On the 4-vCPU development container the
// curve stays well short of linear: its vCPUs mostly delivered one CPU of
// parallel throughput, and part of a run is serial (the four submits, the
// caller queueing each wave before it drains the pool, starting and joining
// the threads - 1 helpers, tearing down; EXPERIMENTS.md, "Fleet scaling").
// At one thread the run's caller runs every zone itself and starts no
// thread.
//
// BM_FleetScheduler times the pool alone: a few thousand short busy-loop
// tasks with mixed deadlines, every fifth requeueing a follow-up, drained
// by wait_idle() on a pool built once; items = tasks run, requeues
// included.
//
// BM_DaemonWatch times one whole MonitorDaemon watch, end to end: every
// epoch's churn, fleet run, decision and checkpoint into memory journals.
// Two shapes: the benchmark suite's svc_watch request (2000 TRP tags in
// zones of 250, M = 16, 16 epochs, an 18-tag theft at epoch 8, one fleet
// thread, a stoppable abort token like the service's) and a watch at
// warehouse scale (10^6 TRP tags in one zone, 4 epochs, a 2000-tag theft at
// epoch 2). Both run the identification drill-down.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/daemon.h"
#include "fleet/fleet.h"
#include "fleet/scheduler.h"
#include "server/group_planner.h"
#include "storage/backend.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;

constexpr int kInventories = 4;
constexpr std::uint64_t kTagsPerInventory = 320;
constexpr std::uint64_t kZoneCapacity = 20;  // => 16 zones per inventory

void BM_FleetSessionsPerSecond(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));

  // The population and plan are part of the scenario, not the measured
  // work: build them once and copy into each run's specs.
  util::Rng rng(808);
  std::vector<tag::TagSet> populations;
  for (int i = 0; i < kInventories; ++i) {
    populations.push_back(tag::TagSet::make_random(kTagsPerInventory, rng));
  }
  const server::GroupPlan plan =
      server::plan_groups({.total_tags = kTagsPerInventory,
                           .total_tolerance = 8,
                           .alpha = 0.95,
                           .max_group_size = kZoneCapacity});
  const std::uint64_t zones =
      static_cast<std::uint64_t>(plan.zones.size()) * kInventories;

  for (auto _ : state) {
    fleet::FleetOrchestrator orchestrator(
        {.seed = 4242, .threads = threads, .fleet_name = "bench"});
    for (int i = 0; i < kInventories; ++i) {
      fleet::InventorySpec spec;
      spec.name = "inv" + std::to_string(i);
      spec.tags = populations[static_cast<std::size_t>(i)];
      spec.plan = plan;
      spec.rounds = 1;
      orchestrator.submit(std::move(spec));
    }
    benchmark::DoNotOptimize(orchestrator.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(zones));
  state.counters["threads"] = threads;
}

void ThreadArgs(benchmark::internal::Benchmark* bench) {
  // Sweep 1..hardware_concurrency in powers of two, but always include at
  // least 1/2/4 so the scaling shape is visible even when the benchmark is
  // built on a small box and run on a big one.
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned top = hw > 4 ? hw : 4;
  for (unsigned t = 1; t <= top; t *= 2) {
    bench->Arg(static_cast<std::int64_t>(t));
  }
}

BENCHMARK(BM_FleetSessionsPerSecond)->Apply(ThreadArgs)->UseRealTime();

void BM_FleetScheduler(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  constexpr int kTasks = 4000;
  constexpr int kRequeueEvery = 5;
  const std::uint64_t spin_iterations = 1000;  // about 0.4 µs per task
  const auto spin = [spin_iterations] {
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < spin_iterations; ++i) {
      benchmark::DoNotOptimize(x += i);
    }
  };
  fleet::FleetScheduler pool(threads);
  for (auto _ : state) {
    for (int i = 0; i < kTasks; ++i) {
      pool.submit(static_cast<double>((i * 37) % 101), [&pool, &spin, i] {
        spin();
        if (i % kRequeueEvery == 0) pool.submit(0.0, spin);
      });
    }
    pool.wait_idle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (kTasks + kTasks / kRequeueEvery));
  state.counters["threads"] = threads;
}

BENCHMARK(BM_FleetScheduler)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

struct WatchShape {
  std::uint64_t tags;
  std::uint64_t zone_capacity;  // 0 = one zone
  std::uint64_t tolerance;
  std::uint64_t epochs;
  std::uint64_t steal_epoch;
  std::uint64_t steal;
  std::uint64_t steal_from;
};

constexpr WatchShape kSvcWatch{.tags = 2000,
                               .zone_capacity = 250,
                               .tolerance = 16,
                               .epochs = 16,
                               .steal_epoch = 8,
                               .steal = 18,
                               .steal_from = 760};
constexpr WatchShape kMillionTagWatch{.tags = 1000000,
                                      .zone_capacity = 0,
                                      .tolerance = 500,
                                      .epochs = 4,
                                      .steal_epoch = 2,
                                      .steal = 2000,
                                      .steal_from = 400000};

void BM_DaemonWatch(benchmark::State& state, WatchShape shape) {
  daemon::WarehouseConfig warehouse;
  warehouse.initial_tags = shape.tags;
  warehouse.zone_capacity = shape.zone_capacity;
  warehouse.tolerance = shape.tolerance;
  warehouse.rounds = 1;
  warehouse.identify.enabled = true;
  warehouse.churn.push_back(daemon::ChurnEvent{.epoch = shape.steal_epoch,
                                               .steal = shape.steal,
                                               .steal_from = shape.steal_from});
  // Stoppable, as the service's token is, so each watch runs the stop relay.
  std::stop_source abort;
  for (auto _ : state) {
    storage::MemoryBackend backend;
    daemon::DaemonConfig config;
    config.seed = 20080617;
    config.epochs = shape.epochs;
    config.threads = 1;
    config.backend = &backend;
    config.abort = abort.get_token();
    daemon::MonitorDaemon watch(config, warehouse);
    daemon::DaemonResult result = watch.run();
    benchmark::DoNotOptimize(result);
    if (result.epochs_completed != shape.epochs || result.alerts.empty()) {
      state.SkipWithError("the watch did not complete or missed the theft");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.epochs));
}

BENCHMARK_CAPTURE(BM_DaemonWatch, svc_watch, kSvcWatch)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DaemonWatch, million_tags, kMillionTagWatch)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
