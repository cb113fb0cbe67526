// ThreadSanitizer hammer for the fleet subsystem. These tests exist to be
// run under -fsanitize=thread (see the thread-sanitize CI job): they drive
// the deadline pool and the orchestrator hard enough that any missing
// happens-before edge — concurrent submits and takes, requeue hand-offs, a
// caller draining beside the workers, the wait_idle and drain barriers,
// concurrent journal appends — shows up as a TSan report. Functional
// assertions are deliberately light; correctness is pinned elsewhere
// (fleet_test, fleet_determinism_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fleet/fleet.h"
#include "fleet/scheduler.h"
#include "obs/metrics.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "server/group_planner.h"
#include "storage/backend.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;

// Many external threads submit into the scheduler while tasks themselves
// requeue follow-ups — the exact shape of a fleet run's retry traffic — and
// the test thread drains beside the workers, as run()'s caller does.
TEST(FleetConcurrencyHammer, ConcurrentSubmittersAndRequeues) {
  fleet::FleetScheduler scheduler(8);
  std::atomic<std::uint64_t> ran{0};

  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 200;
  std::atomic<int> submitting{kSubmitters};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&scheduler, &ran, &submitting, s] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        const double deadline = static_cast<double>((s * 7 + i * 13) % 97);
        scheduler.submit(deadline, [&scheduler, &ran, i] {
          ran.fetch_add(1, std::memory_order_relaxed);
          if (i % 5 == 0) {  // a retryable zone resubmitting itself
            scheduler.submit(1.0, [&ran] {
              ran.fetch_add(1, std::memory_order_relaxed);
            });
          }
        });
      }
      submitting.fetch_sub(1, std::memory_order_release);
    });
  }
  // drain() returns whenever the pool is idle, which it may be between two
  // outside submits, so drain until every submitter is done, then once
  // more for what they queued last.
  while (submitting.load(std::memory_order_acquire) > 0) {
    scheduler.drain();
    std::this_thread::yield();
  }
  for (auto& t : submitters) t.join();
  scheduler.drain();

  constexpr std::uint64_t kExpected =
      kSubmitters * kTasksPerSubmitter +
      kSubmitters * (kTasksPerSubmitter / 5);
  EXPECT_EQ(ran.load(), kExpected);
  EXPECT_EQ(scheduler.executed(), kExpected);
}

// Back-to-back waves through one scheduler: wait_idle must be a full
// barrier (every effect of wave N visible before wave N+1 is submitted).
TEST(FleetConcurrencyHammer, RepeatedWaveBarriers) {
  fleet::FleetScheduler scheduler(8);
  std::uint64_t unguarded = 0;  // only safe if wait_idle really is a barrier
  for (int wave = 0; wave < 50; ++wave) {
    std::atomic<int> wave_ran{0};
    for (int i = 0; i < 32; ++i) {
      scheduler.submit(static_cast<double>(i), [&wave_ran] {
        wave_ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    scheduler.wait_idle();
    unguarded += static_cast<std::uint64_t>(wave_ran.load());
  }
  EXPECT_EQ(unguarded, 50u * 32u);
}

// A full orchestrated fleet at 8 threads: 64+ zones across 4 inventories,
// retryable crash faults (requeue traffic), a theft, a journal backend
// (concurrent appends), and the whole observability stack.
TEST(FleetConcurrencyHammer, SixtyFourZoneFleetUnderTsan) {
  obs::MetricsRegistry metrics;
  double clock = 0.0;
  obs::Tracer tracer([&clock] { return clock += 1.0; });
  obs::SessionLog log(512);
  storage::MemoryBackend backend;

  fleet::FleetOrchestrator orchestrator({.seed = 99,
                                         .threads = 8,
                                         .max_zone_attempts = 3,
                                         .fleet_name = "hammer",
                                         .metrics = &metrics,
                                         .tracer = &tracer,
                                         .session_log = &log,
                                         .journal_backend = &backend});

  util::Rng rng(31337);
  for (int i = 0; i < 4; ++i) {
    fleet::InventorySpec spec;
    spec.name = "inv" + std::to_string(i);
    spec.tags = tag::TagSet::make_random(320, rng);
    spec.plan = server::plan_groups({.total_tags = 320,
                                     .total_tolerance = 8,
                                     .alpha = 0.95,
                                     .max_group_size = 20});
    spec.rounds = 1;
    if (i == 2) {
      for (std::uint64_t t = 0; t < 12; ++t) spec.stolen.push_back(t);
    }
    // Crash faults on a few zones per inventory to force requeues.
    for (std::uint64_t z = 0; z < 16; z += 5) {
      spec.zone_faults.emplace_back(
          z, fault::parse_fault_plan("crash 10000 never\n"));
    }
    orchestrator.submit(std::move(spec));
  }

  const fleet::FleetResult result = orchestrator.run();
  EXPECT_EQ(result.zones, 64u);
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_GT(result.requeues, 0u);
  EXPECT_FALSE(fleet::summary(result).empty());
}

// A fused fleet at 8 threads: every zone fans out k = 3 reader sessions
// that race to the atomic fan-in counter, and the LAST terminal reader
// runs the fusion on state written by all three — the happens-before edge
// this hammer exists to check under TSan. Crash faults on individual
// readers add retry traffic through the same fan-in, and an adversarial
// reader exercises the trust/suspect accounting concurrently.
TEST(FleetConcurrencyHammer, FusedReaderFanInUnderTsan) {
  obs::MetricsRegistry metrics;
  obs::SessionLog log(512);
  storage::MemoryBackend backend;

  fleet::FleetOrchestrator orchestrator({.seed = 4711,
                                         .threads = 8,
                                         .max_zone_attempts = 3,
                                         .fleet_name = "fused-hammer",
                                         .metrics = &metrics,
                                         .session_log = &log,
                                         .journal_backend = &backend});

  util::Rng rng(2718);
  for (int i = 0; i < 2; ++i) {
    fleet::InventorySpec spec;
    spec.name = "inv" + std::to_string(i);
    spec.tags = tag::TagSet::make_random(240, rng);
    spec.plan = server::plan_groups({.total_tags = 240,
                                     .total_tolerance = 6,
                                     .alpha = 0.95,
                                     .max_group_size = 20});
    spec.rounds = 2;
    spec.fusion.readers = 3;
    if (i == 1) {
      for (std::uint64_t t = 0; t < 9; ++t) spec.stolen.push_back(t);
    }
    // Zone 0 holds inventory 1's stolen tags, so that forger casts real
    // phantom votes; inventory 0's forger forges the truth and stays
    // invisible (correctly so).
    spec.dishonest_readers.emplace_back(0, 2);
    for (std::uint64_t z = 0; z < 12; z += 4) {
      // One reader of the zone crashes and retries; the other two cross
      // the fan-in while its replacement attempt is still in flight.
      spec.zone_faults.emplace_back(
          z, fault::parse_multi_reader_fault_plan(
                 "reader=1: crash 10000 never\n"));
    }
    orchestrator.submit(std::move(spec));
  }

  const fleet::FleetResult result = orchestrator.run();
  EXPECT_EQ(result.zones, 24u);
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_GT(result.requeues, 0u);
  EXPECT_GE(result.readers_suspected, 1u);
  EXPECT_FALSE(fleet::summary(result).empty());
}

}  // namespace
