// Fleet orchestrator tests: the pool's deadline order, draining, idle and
// stop contracts, verdict aggregation (pigeonhole over Sigma m_i = M),
// retry/requeue of retryable failures, escalation of permanent ones,
// admission backpressure, and crash recovery through the fleet journal.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "fault/storage_fault.h"
#include "fleet/fleet.h"
#include "fleet/scheduler.h"
#include "obs/catalog.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "server/group_planner.h"
#include "storage/backend.h"
#include "storage/fleet_journal.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;

// A latch the scheduler tests use to park a worker inside a task.
class Gate {
 public:
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// ---------------------------------------------------------- scheduler ----

TEST(FleetScheduler, RunsEarliestDeadlineFirst) {
  fleet::FleetScheduler pool(1);
  Gate gate;
  std::mutex mu;
  std::vector<int> order;
  // Park the single worker so the three real tasks queue up, then release:
  // they must drain in deadline order regardless of submission order.
  pool.submit(0.0, [&gate] { gate.wait(); });
  pool.submit(30.0, [&] { const std::lock_guard<std::mutex> l(mu); order.push_back(30); });
  pool.submit(10.0, [&] { const std::lock_guard<std::mutex> l(mu); order.push_back(10); });
  pool.submit(20.0, [&] { const std::lock_guard<std::mutex> l(mu); order.push_back(20); });
  gate.open();
  pool.wait_idle();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[1], 20);
  EXPECT_EQ(order[2], 30);
}

TEST(FleetScheduler, EqualDeadlinesAreFifo) {
  fleet::FleetScheduler pool(1);
  Gate gate;
  std::mutex mu;
  std::vector<int> order;
  pool.submit(0.0, [&gate] { gate.wait(); });
  for (int i = 0; i < 5; ++i) {
    pool.submit(7.0, [&, i] { const std::lock_guard<std::mutex> l(mu); order.push_back(i); });
  }
  gate.open();
  pool.wait_idle();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(FleetScheduler, BacklogDrainsWhileOneWorkerIsBlocked) {
  fleet::FleetScheduler pool(2);
  Gate gate;
  std::atomic<int> done{0};
  // Park one worker on the first task; the backlog queued behind it must
  // drain through the other worker, or wait_idle would hang until the gate
  // opens.
  pool.submit(0.0, [&gate] { gate.wait(); });
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit(static_cast<double>(i), [&done] {
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // The free worker can finish every task while the other stays parked.
  for (int spin = 0; done.load(std::memory_order_relaxed) < kTasks; ++spin) {
    ASSERT_LT(spin, 10000) << "tasks behind a blocked worker never drained";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.open();
  pool.wait_idle();
  EXPECT_EQ(pool.executed(), static_cast<std::uint64_t>(kTasks) + 1u);
}

TEST(FleetScheduler, TasksMaySubmitTasks) {
  fleet::FleetScheduler pool(4);
  std::atomic<int> executed{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit(1.0, [&pool, &executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      pool.submit(0.5, [&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  pool.wait_idle();  // must cover the requeues, not just the first wave
  EXPECT_EQ(executed.load(), 16);
}

TEST(FleetScheduler, SingleSubmitToAnIdlePoolAlwaysWakesAWorker) {
  // Lost-wakeup regression: a task submitted while every worker sleeps has
  // no later submit to mask a dropped notify, so a submit that publishes
  // its task outside the lock the workers wait under can strand the task
  // and hang wait_idle().
  // Tight submit/drain cycles against a single worker give the race many
  // chances to land in the predicate-check-to-sleep window.
  fleet::FleetScheduler pool(1);
  std::atomic<int> executed{0};
  for (int i = 0; i < 2000; ++i) {
    pool.submit(0.0, [&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    pool.wait_idle();
  }
  EXPECT_EQ(executed.load(), 2000);
}

TEST(FleetScheduler, ZeroWorkerPoolDrainedByItsCallerRunsInEdfOrder) {
  // A pool with no worker runs nothing until its owner drains it. The
  // draining caller then takes every task, requeues included, in (deadline,
  // submission) order on its own thread.
  fleet::FleetScheduler pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool off_caller = false;
  const auto record = [&](int label) {
    off_caller = off_caller || std::this_thread::get_id() != caller;
    order.push_back(label);
  };
  pool.submit(30.0, [&] { record(30); });
  pool.submit(10.0, [&] {
    record(10);
    pool.submit(20.0, [&] { record(21); });  // ties the queued 20: after it
    pool.submit(5.0, [&] { record(5); });    // the earliest: runs next
  });
  pool.submit(20.0, [&] { record(20); });
  pool.submit(10.0, [&] { record(11); });
  EXPECT_EQ(pool.executed(), 0u);
  pool.drain();
  EXPECT_EQ(order, (std::vector<int>{10, 5, 11, 20, 21, 30}));
  EXPECT_FALSE(off_caller);
  EXPECT_EQ(pool.executed(), 6u);
}

// ---------------------------------------------------------- test rig ----

fleet::InventorySpec make_trp_spec(const std::string& name, std::uint64_t tags,
                                   std::uint64_t tolerance,
                                   std::uint64_t capacity, util::Rng& rng) {
  fleet::InventorySpec spec;
  spec.name = name;
  spec.protocol = fleet::Protocol::kTrp;
  spec.tags = tag::TagSet::make_random(tags, rng);
  spec.plan = server::plan_groups({.total_tags = tags,
                                   .total_tolerance = tolerance,
                                   .alpha = 0.95,
                                   .max_group_size = capacity});
  spec.rounds = 2;
  return spec;
}

// A MemoryBackend that calls `on_append` before every append: the tests
// below record the appending thread, or flip the kill switch from inside a
// zone's journal write.
class HookedBackend final : public storage::MemoryBackend {
 public:
  explicit HookedBackend(std::function<void(const std::string&)> on_append)
      : on_append_(std::move(on_append)) {}
  void append(const std::string& name, std::string_view bytes) override {
    on_append_(name);
    storage::MemoryBackend::append(name, bytes);
  }

 private:
  std::function<void(const std::string&)> on_append_;
};

// ---------------------------------------------------------- aggregation ----

TEST(FleetOrchestrator, IntactFleetAggregatesIntact) {
  util::Rng rng(101);
  fleet::FleetOrchestrator orchestrator({.seed = 7, .threads = 2});
  EXPECT_EQ(orchestrator.submit(make_trp_spec("aisle-a", 120, 4, 40, rng)),
            fleet::Admission::kAccepted);
  EXPECT_EQ(orchestrator.submit(make_trp_spec("aisle-b", 90, 3, 30, rng)),
            fleet::Admission::kAccepted);
  const fleet::FleetResult result = orchestrator.run();

  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  ASSERT_EQ(result.inventories.size(), 2u);
  EXPECT_EQ(result.zones, 6u);
  EXPECT_EQ(result.attempts, 6u);
  EXPECT_EQ(result.requeues, 0u);
  EXPECT_EQ(result.escalations, 0u);
  for (const fleet::InventoryReport& inventory : result.inventories) {
    EXPECT_EQ(inventory.verdict, fleet::GlobalVerdict::kIntact);
    // The planner's guarantee carried through: Sigma m_i == M.
    std::uint64_t allocated = 0;
    for (const fleet::ZoneReport& zone : inventory.zones) {
      EXPECT_EQ(zone.status, fleet::ZoneStatus::kIntact);
      EXPECT_EQ(zone.attempts, 1u);
      EXPECT_GT(zone.duration_us, 0.0);
      allocated += 0;  // tolerance lives in the plan, checked below
    }
    EXPECT_GT(inventory.tolerance, 0u);
  }
  const std::string text = fleet::summary(result);
  EXPECT_NE(text.find("fleet verdict: intact"), std::string::npos);
  EXPECT_NE(text.find("aisle-a"), std::string::npos);
}

TEST(FleetOrchestrator, TheftBeyondToleranceAggregatesViolated) {
  util::Rng rng(102);
  fleet::FleetOrchestrator orchestrator({.seed = 9, .threads = 2});
  fleet::InventorySpec looted = make_trp_spec("looted", 120, 3, 40, rng);
  // Steal far past zone 0's tolerance: indices 0..9 all land in zone 0
  // (split_by_plan slices in order), so its round mismatches essentially
  // surely and the pigeonhole argument flags the inventory.
  for (std::uint64_t i = 0; i < 10; ++i) looted.stolen.push_back(i);
  orchestrator.submit(std::move(looted));
  orchestrator.submit(make_trp_spec("clean", 80, 2, 40, rng));
  const fleet::FleetResult result = orchestrator.run();

  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_EQ(result.inventories[0].verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_EQ(result.inventories[1].verdict, fleet::GlobalVerdict::kIntact);
  EXPECT_EQ(result.inventories[0].zones[0].status,
            fleet::ZoneStatus::kViolated);
  EXPECT_GT(result.inventories[0].zones[0].mismatched_rounds, 0u);
  // Drill-down is opt-in: a violated zone without it reports no campaign.
  EXPECT_FALSE(result.inventories[0].zones[0].identification.ran);
  EXPECT_EQ(result.zones_identified, 0u);
}

// ----------------------------------------------- identification drill ----

TEST(FleetOrchestrator, DrillDownNamesExactlyTheStolenTags) {
  util::Rng rng(110);
  obs::MetricsRegistry metrics;
  fleet::FleetOrchestrator orchestrator(
      {.seed = 9, .threads = 2, .metrics = &metrics});
  fleet::InventorySpec looted = make_trp_spec("looted", 120, 3, 40, rng);
  for (std::uint64_t i = 0; i < 10; ++i) looted.stolen.push_back(i);
  // Remember the stolen IDs before the spec is consumed: indices 0..9 all
  // land in zone 0 (split_by_plan slices in order).
  std::vector<tag::TagId> stolen_ids;
  for (std::uint64_t i = 0; i < 10; ++i) {
    stolen_ids.push_back(looted.tags.at(i).id());
  }
  looted.identify.enabled = true;
  orchestrator.submit(std::move(looted));
  const fleet::FleetResult result = orchestrator.run();

  ASSERT_EQ(result.verdict, fleet::GlobalVerdict::kViolated);
  const fleet::ZoneIdentification& id =
      result.inventories[0].zones[0].identification;
  ASSERT_TRUE(id.ran);
  EXPECT_EQ(id.protocol, "filter_first");
  ASSERT_EQ(id.missing.size(), stolen_ids.size());
  // Both lists are in enrolled order, so they compare element-wise.
  for (std::size_t i = 0; i < stolen_ids.size(); ++i) {
    EXPECT_EQ(id.missing[i], stolen_ids[i]) << "tag " << i;
  }
  EXPECT_EQ(id.present, 30u);  // zone 0 holds 40 tags, 10 stolen
  EXPECT_EQ(id.unresolved, 0u);
  EXPECT_GT(id.rounds, 0u);
  EXPECT_GT(id.slots, 0u);
  EXPECT_GT(id.duration_us, 0.0);
  EXPECT_EQ(result.zones_identified, 1u);
  EXPECT_EQ(result.tags_named, 10u);
  // Intact zones are never drilled.
  for (std::size_t z = 1; z < result.inventories[0].zones.size(); ++z) {
    EXPECT_FALSE(result.inventories[0].zones[z].identification.ran);
  }

  // The campaign lands in the identify_* metric family.
  namespace cat = obs::catalog;
  EXPECT_EQ(
      cat::identify_campaigns_total(metrics, "filter_first", "resolved")
          .value(),
      1u);
  EXPECT_EQ(cat::identify_tags_total(metrics, "missing").value(), 10u);
  EXPECT_EQ(cat::identify_tags_total(metrics, "present").value(), 30u);

  // And the summary names the stolen tags (capped at 8, so "+2 more").
  const std::string text = fleet::summary(result);
  EXPECT_NE(text.find("identified [filter_first]"), std::string::npos);
  EXPECT_NE(text.find(stolen_ids[0].to_string()), std::string::npos);
  EXPECT_NE(text.find("+2 more"), std::string::npos);
}

TEST(FleetOrchestrator, DrillDownSupportsTheIterativeFamilyMember) {
  util::Rng rng(111);
  fleet::FleetOrchestrator orchestrator({.seed = 13, .threads = 1});
  fleet::InventorySpec looted = make_trp_spec("aisle", 80, 2, 40, rng);
  for (std::uint64_t i = 0; i < 6; ++i) looted.stolen.push_back(i);
  const std::vector<tag::TagId> stolen_ids = [&] {
    std::vector<tag::TagId> ids;
    for (std::uint64_t i = 0; i < 6; ++i) ids.push_back(looted.tags.at(i).id());
    return ids;
  }();
  looted.identify.enabled = true;
  looted.identify.protocol = protocol::IdentifyProtocolKind::kIterative;
  orchestrator.submit(std::move(looted));
  const fleet::FleetResult result = orchestrator.run();

  const fleet::ZoneIdentification& id =
      result.inventories[0].zones[0].identification;
  ASSERT_TRUE(id.ran);
  EXPECT_EQ(id.protocol, "iterative");
  ASSERT_EQ(id.missing.size(), stolen_ids.size());
  for (std::size_t i = 0; i < stolen_ids.size(); ++i) {
    EXPECT_EQ(id.missing[i], stolen_ids[i]) << "tag " << i;
  }
  EXPECT_EQ(id.filter_bits, 0u);  // iterative never broadcasts ACK filters
}

// ------------------------------------------------------ retry/escalate ----

TEST(FleetOrchestrator, RetryableFailureRequeuesAndRecovers) {
  util::Rng rng(103);
  fleet::InventorySpec spec = make_trp_spec("flaky", 90, 3, 30, rng);
  // Zone 1's reader dies mid-session on attempt 0 and never restarts; the
  // retry runs fault-free (faults_on_retries defaults to false) and
  // completes — the transient-outage recovery story.
  spec.zone_faults.emplace_back(1, fault::parse_fault_plan("crash 10000 never\n"));
  fleet::FleetOrchestrator orchestrator(
      {.seed = 11, .threads = 2, .max_zone_attempts = 3});
  orchestrator.submit(std::move(spec));
  const fleet::FleetResult result = orchestrator.run();

  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  const fleet::ZoneReport& zone = result.inventories[0].zones[1];
  EXPECT_EQ(zone.status, fleet::ZoneStatus::kIntact);
  EXPECT_EQ(zone.attempts, 2u);
  EXPECT_EQ(zone.last_failure, wire::FailureReason::kNone);
  EXPECT_EQ(result.requeues, 1u);
  EXPECT_EQ(result.attempts, 4u);  // 3 zones + 1 retry
  EXPECT_EQ(result.escalations, 0u);
}

TEST(FleetOrchestrator, PermanentFailureEscalatesAsAlert) {
  util::Rng rng(104);
  fleet::InventorySpec spec = make_trp_spec("dark", 30, 1, 0, rng);  // 1 zone
  spec.session.uplink.drop_prob = 1.0;  // dead backhaul, every attempt
  spec.session.max_retries = 2;
  fleet::FleetOrchestrator orchestrator(
      {.seed = 13, .threads = 1, .max_zone_attempts = 2});
  orchestrator.submit(std::move(spec));
  const fleet::FleetResult result = orchestrator.run();

  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kInconclusive);
  const fleet::ZoneReport& zone = result.inventories[0].zones[0];
  EXPECT_EQ(zone.status, fleet::ZoneStatus::kFailed);
  EXPECT_EQ(zone.attempts, 2u);
  EXPECT_EQ(zone.last_failure, wire::FailureReason::kTimeoutExhausted);
  EXPECT_EQ(result.escalations, 1u);
  ASSERT_EQ(result.alerts.size(), 1u);
  EXPECT_EQ(result.alerts[0].kind, fleet::AlertKind::kZoneEscalated);
  EXPECT_EQ(result.alerts[0].inventory, "dark");
  EXPECT_NE(fleet::summary(result).find("zone_escalated"), std::string::npos);
}

TEST(FleetOrchestrator, UtrpRetryResyncsTheMirror) {
  util::Rng rng(105);
  fleet::InventorySpec spec;
  spec.name = "utrp-cage";
  spec.protocol = fleet::Protocol::kUtrp;
  spec.tags = tag::TagSet::make_random(60, rng);
  spec.plan = server::plan_groups({.total_tags = 60,
                                   .total_tolerance = 2,
                                   .alpha = 0.95,
                                   .max_group_size = 30});
  spec.comm_budget = 10;
  spec.rounds = 1;
  spec.session.utrp_deadline_us = 10e6;
  spec.zone_faults.emplace_back(0, fault::parse_fault_plan("crash 10000 never\n"));
  fleet::FleetOrchestrator orchestrator(
      {.seed = 17, .threads = 2, .max_zone_attempts = 3});
  orchestrator.submit(std::move(spec));
  const fleet::FleetResult result = orchestrator.run();

  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  const fleet::ZoneReport& zone = result.inventories[0].zones[0];
  EXPECT_EQ(zone.status, fleet::ZoneStatus::kIntact);
  EXPECT_GE(zone.attempts, 2u);
  EXPECT_TRUE(zone.resynced);
  EXPECT_GE(result.resyncs, 1u);
}

TEST(FleetOrchestrator, UtrpTheftRetryReauditsAbsentTags) {
  // Zone 0 both loses tags and has its reader crash mid-session on attempt
  // 0, so the retry re-audits the zone: present tags at their advanced
  // counters, the stolen ones rebuilt from the enrolled columnar slice.
  const auto run_on = [](unsigned threads) {
    util::Rng rng(106);
    fleet::InventorySpec spec;
    spec.name = "utrp-vault";
    spec.protocol = fleet::Protocol::kUtrp;
    spec.tags = tag::TagSet::make_random(90, rng);
    spec.plan = server::plan_groups({.total_tags = 90,
                                     .total_tolerance = 3,
                                     .alpha = 0.95,
                                     .max_group_size = 30});
    for (std::uint64_t i = 0; i < 8; ++i) spec.stolen.push_back(i);  // zone 0
    spec.comm_budget = 10;
    spec.rounds = 1;
    spec.session.utrp_deadline_us = 10e6;
    spec.zone_faults.emplace_back(0,
                                  fault::parse_fault_plan("crash 10000 never\n"));
    spec.identify.enabled = true;
    fleet::FleetOrchestrator orchestrator(
        {.seed = 19, .threads = threads, .max_zone_attempts = 3});
    orchestrator.submit(std::move(spec));
    return orchestrator.run();
  };
  const fleet::FleetResult one = run_on(1);
  const fleet::FleetResult four = run_on(4);

  ASSERT_EQ(one.inventories.size(), 1u);
  const fleet::InventoryReport& inventory = one.inventories[0];
  EXPECT_EQ(inventory.tags, 90u);
  const fleet::ZoneReport& zone = inventory.zones[0];
  EXPECT_EQ(zone.status, fleet::ZoneStatus::kViolated);
  EXPECT_TRUE(zone.resynced);
  EXPECT_EQ(fleet::summary(one), fleet::summary(four));
  EXPECT_EQ(fleet::summary(one),
            "fleet verdict: violated\n"
            "inventories: 1 monitored, 0 rejected, 0 deferred; waves: 1\n"
            "  utrp-vault [utrp] wave 0: violated - zones 3 (intact 2, "
            "violated 1, degraded 0, failed 0), tags 90, tolerance 3, "
            "worst-zone detection 0.9503150557171872\n"
            "    zone0 identified [filter_first]: 8 missing, 22 present, "
            "0 unresolved in 1 round(s), 44 slot(s)\n"
            "      missing urn:epc:raw:5c85f21c.9793b5a22c273791\n"
            "      missing urn:epc:raw:a49ea7dc.e3adb59cbcaa18a3\n"
            "      missing urn:epc:raw:75d50b9a.4a930c0ea54bd049\n"
            "      missing urn:epc:raw:b10f5f3e.20eae20d6f61e190\n"
            "      missing urn:epc:raw:4e669bb8.c762bada91a1a23b\n"
            "      missing urn:epc:raw:a6062925.00450cbe90c4e306\n"
            "      missing urn:epc:raw:7eadfa14.f83dd74dc35bcd63\n"
            "      missing urn:epc:raw:0ab1ef1e.3ce4ff58c4cd2571\n"
            "zones: 3; attempts: 4, requeues: 1, escalations: 0, resyncs: 1, "
            "recovered: 0, degraded: 0, suspects: 0\n");
}

// ----------------------------------------------------------- admission ----

TEST(FleetOrchestrator, SaturatedAdmissionDefersToALaterWave) {
  util::Rng rng(106);
  fleet::FleetOrchestrator orchestrator(
      {.seed = 19, .threads = 2, .admission_capacity = 3});
  EXPECT_EQ(orchestrator.submit(make_trp_spec("first", 90, 3, 30, rng)),
            fleet::Admission::kAccepted);  // 3 zones: fills wave 0
  EXPECT_EQ(orchestrator.submit(make_trp_spec("second", 60, 2, 30, rng)),
            fleet::Admission::kDeferred);  // 2 zones: wave 1
  const fleet::FleetResult result = orchestrator.run();

  EXPECT_EQ(result.waves, 2u);
  EXPECT_EQ(result.deferred_inventories, 1u);
  ASSERT_EQ(result.inventories.size(), 2u);  // deferred still monitored
  EXPECT_EQ(result.inventories[0].wave, 0u);
  EXPECT_EQ(result.inventories[1].wave, 1u);
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  EXPECT_TRUE(result.rejected.empty());
}

TEST(FleetOrchestrator, SaturatedAdmissionRejectsWhenDeferralDisabled) {
  util::Rng rng(107);
  fleet::FleetOrchestrator orchestrator({.seed = 23,
                                         .threads = 1,
                                         .admission_capacity = 3,
                                         .defer_when_saturated = false});
  EXPECT_EQ(orchestrator.submit(make_trp_spec("kept", 90, 3, 30, rng)),
            fleet::Admission::kAccepted);
  EXPECT_EQ(orchestrator.submit(make_trp_spec("shed", 60, 2, 30, rng)),
            fleet::Admission::kRejected);
  const fleet::FleetResult result = orchestrator.run();

  ASSERT_EQ(result.inventories.size(), 1u);  // rejected is NOT monitored
  ASSERT_EQ(result.rejected.size(), 1u);
  EXPECT_EQ(result.rejected[0], "shed");
  ASSERT_EQ(result.alerts.size(), 1u);
  EXPECT_EQ(result.alerts[0].kind, fleet::AlertKind::kInventoryRejected);
}

TEST(FleetOrchestrator, OversizedInventoryGetsItsOwnWave) {
  util::Rng rng(108);
  fleet::FleetOrchestrator orchestrator(
      {.seed = 29, .threads = 2, .admission_capacity = 2});
  // 4 zones > capacity 2, but an empty wave admits it whole.
  EXPECT_EQ(orchestrator.submit(make_trp_spec("huge", 120, 4, 30, rng)),
            fleet::Admission::kAccepted);
  const fleet::FleetResult result = orchestrator.run();
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  EXPECT_EQ(result.zones, 4u);
}

// ------------------------------------------------------- observability ----

TEST(FleetOrchestrator, RecordsMetricsSpansAndSessionLog) {
  util::Rng rng(109);
  obs::MetricsRegistry metrics;
  double clock = 0.0;
  obs::Tracer tracer([&clock] { return clock += 1.0; });
  obs::SessionLog log(64);
  fleet::InventorySpec spec = make_trp_spec("observed", 60, 2, 30, rng);
  spec.zone_faults.emplace_back(0, fault::parse_fault_plan("crash 10000 never\n"));
  fleet::FleetOrchestrator orchestrator({.seed = 31,
                                         .threads = 2,
                                         .fleet_name = "east-wing",
                                         .metrics = &metrics,
                                         .tracer = &tracer,
                                         .session_log = &log});
  orchestrator.submit(std::move(spec));
  const fleet::FleetResult result = orchestrator.run();
  ASSERT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);

  namespace cat = obs::catalog;
  EXPECT_EQ(cat::fleet_runs_total(metrics, "intact").value(), 1u);
  EXPECT_EQ(cat::fleet_inventories_total(metrics, "intact").value(), 1u);
  EXPECT_EQ(cat::fleet_zones_total(metrics, "intact").value(), 2u);
  EXPECT_EQ(cat::fleet_admissions_total(metrics, "accepted").value(), 1u);
  EXPECT_EQ(cat::fleet_zone_attempts_total(metrics, "trp").value(),
            result.attempts);
  EXPECT_EQ(cat::fleet_requeues_total(metrics).value(), result.requeues);

  // Span nesting: fleet -> inventory -> zone -> session.
  const std::string trace = tracer.render();
  EXPECT_NE(trace.find("fleet"), std::string::npos);
  EXPECT_NE(trace.find("inventory"), std::string::npos);
  EXPECT_NE(trace.find("zone"), std::string::npos);
  EXPECT_NE(trace.find("session"), std::string::npos);

  // One SessionLog entry per executed attempt, labeled with the fleet.
  const auto recent = log.recent();
  ASSERT_EQ(recent.size(), result.attempts);
  for (const obs::SessionSummary& s : recent) {
    EXPECT_EQ(s.fleet, "east-wing");
    EXPECT_EQ(s.protocol, "trp");
  }
  // The JSON exposition renders the fleet label for orchestrated sessions.
  const std::string json = obs::render_json(metrics.snapshot(), &log);
  EXPECT_NE(json.find("\"fleet\":\"east-wing\""), std::string::npos);
  EXPECT_NE(json.find("\"attempt\":0"), std::string::npos);
}

// ------------------------------------------------------------- journal ----

TEST(FleetJournal, ScanSurvivesTornTail) {
  storage::MemoryBackend backend;
  storage::FleetJournal journal(backend, "fleet.journal");
  journal.begin({.seed = 5, .fleet = "f"}, {});
  storage::FleetZoneRecord zone;
  zone.inventory = "inv";
  zone.zone = 3;
  zone.status = 0;
  zone.attempts = 1;
  journal.append(zone);
  std::string bytes = backend.read("fleet.journal");
  const auto clean = storage::scan_fleet_journal(bytes);
  ASSERT_EQ(clean.records.size(), 2u);
  EXPECT_TRUE(clean.header_valid);
  EXPECT_EQ(clean.dropped_bytes, 0u);

  // Tear mid-record: the scan keeps the prefix and drops the tail.
  const auto torn = storage::scan_fleet_journal(
      std::string_view(bytes).substr(0, bytes.size() - 5));
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_GT(torn.dropped_bytes, 0u);
}

TEST(FleetJournal, RecoveryMatchesSeedAndFleetOnly) {
  storage::MemoryBackend backend;
  storage::FleetJournal journal(backend, "fleet.journal");
  journal.begin({.seed = 5, .fleet = "f"}, {});
  storage::FleetZoneRecord zone;
  zone.inventory = "inv";
  zone.zone = 3;
  journal.append(zone);

  const auto scan = storage::scan_fleet_journal(backend.read("fleet.journal"));
  EXPECT_EQ(
      storage::recover_interrupted_run_checked(scan, 5, "f", 0).zones.size(),
      1u);
  EXPECT_TRUE(
      storage::recover_interrupted_run_checked(scan, 6, "f", 0).zones.empty());
  EXPECT_TRUE(
      storage::recover_interrupted_run_checked(scan, 5, "g", 0).zones.empty());

  // A finished run (end record present) has nothing to recover.
  journal.append(storage::FleetRunEndRecord{.verdict = 0});
  const auto done = storage::scan_fleet_journal(backend.read("fleet.journal"));
  EXPECT_TRUE(
      storage::recover_interrupted_run_checked(done, 5, "f", 0).zones.empty());
}

// Rig for the begin() crash-atomicity sweep: an interrupted run's journal
// (start record, one terminal zone, no end record) under (seed 9, "f").
storage::FleetZoneRecord carried_zone() {
  storage::FleetZoneRecord zone;
  zone.inventory = "inv";
  zone.zone = 1;
  zone.status = 0;
  zone.attempts = 2;
  zone.duration_us = 7.0;
  return zone;
}

void build_interrupted_journal(storage::MemoryBackend& backend) {
  storage::FleetJournal journal(backend, "fleet.journal");
  journal.begin({.seed = 9, .fleet = "f"}, {});
  journal.append(carried_zone());
}

TEST(FleetJournal, BeginIsCrashAtomicAtEveryCrashPoint) {
  // Contract: begin() replaces the journal atomically, so a crash anywhere
  // inside it leaves either the complete old journal or the complete new
  // one — the carried (recovered) zone record is readable in both, and a
  // second crash never loses it.
  std::uint64_t total_ops = 0;
  {
    storage::MemoryBackend inner;
    build_interrupted_journal(inner);
    fault::FaultyBackend faulty(inner, {});
    storage::FleetJournal journal(faulty, "fleet.journal");
    journal.begin({.seed = 9, .fleet = "f"}, {carried_zone()});
    total_ops = faulty.mutating_ops();
  }
  ASSERT_GE(total_ops, 2u);

  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    for (const bool before : {true, false}) {
      storage::MemoryBackend inner;
      build_interrupted_journal(inner);
      fault::FaultyBackend faulty(
          inner, {.crash_at_op = k, .crash_before_effect = before});
      storage::FleetJournal journal(faulty, "fleet.journal");
      try {
        journal.begin({.seed = 9, .fleet = "f"}, {carried_zone()});
        FAIL() << "crash point " << k << " never fired";
      } catch (const fault::CrashInjected&) {
      }
      inner.crash();  // drop unflushed bytes, as a power cut would

      const auto scan =
          storage::scan_fleet_journal(inner.read("fleet.journal"));
      EXPECT_TRUE(scan.header_valid)
          << "crash at op " << k << " (before=" << before
          << ") left an unreadable journal";
      EXPECT_EQ(scan.dropped_bytes, 0u);
      const auto zones =
          storage::recover_interrupted_run_checked(scan, 9, "f", 0).zones;
      ASSERT_EQ(zones.count({"inv", 1}), 1u)
          << "crash at op " << k << " (before=" << before
          << ") lost the carried zone record";
      EXPECT_DOUBLE_EQ(zones.at({"inv", 1}).duration_us, 7.0);
    }
  }
}

TEST(FleetJournal, FailedBeginLeavesTheOldJournalReadable) {
  // An IoError inside begin() (disk full while staging the replacement)
  // must not damage the current journal: the old bytes stay bound to the
  // journal name and later appends still land on a well-formed file.
  storage::MemoryBackend inner;
  build_interrupted_journal(inner);
  const std::string old_bytes = inner.read("fleet.journal");

  fault::FaultyBackend faulty(
      inner, {.partial_append_at = 1, .partial_append_keep_fraction = 0.5});
  storage::FleetJournal journal(faulty, "fleet.journal");
  journal.begin({.seed = 9, .fleet = "f"}, {carried_zone()});
  EXPECT_EQ(journal.append_failures(), 1u);
  EXPECT_EQ(inner.read("fleet.journal"), old_bytes);

  storage::FleetZoneRecord late = carried_zone();
  late.zone = 2;
  journal.append(late);
  const auto scan = storage::scan_fleet_journal(inner.read("fleet.journal"));
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(
      storage::recover_interrupted_run_checked(scan, 9, "f", 0).zones.size(),
      2u);
}

TEST(FleetOrchestrator, ReusesZonesJournaledByAnInterruptedRun) {
  storage::MemoryBackend backend;
  // Simulate a crashed orchestrator: a journal holding a start record and
  // one terminal zone, but no end record. The sentinel duration proves the
  // restarted run reused the record instead of re-executing the zone.
  {
    storage::FleetJournal journal(backend, "fleet.journal");
    storage::FleetZoneRecord done;
    done.inventory = "ware";
    done.zone = 0;
    done.status = static_cast<std::uint8_t>(fleet::ZoneStatus::kIntact);
    done.attempts = 1;
    done.rounds_completed = 2;
    done.intact_rounds = 2;
    done.duration_us = 12345.0;
    journal.begin({.seed = 37, .fleet = "fleet"}, {done});
  }

  util::Rng rng(110);
  fleet::FleetOrchestrator orchestrator({.seed = 37,
                                         .threads = 2,
                                         .journal_backend = &backend,
                                         .journal_name = "fleet.journal"});
  orchestrator.submit(make_trp_spec("ware", 90, 3, 30, rng));
  const fleet::FleetResult result = orchestrator.run();

  const fleet::ZoneReport& recovered = result.inventories[0].zones[0];
  EXPECT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.status, fleet::ZoneStatus::kIntact);
  EXPECT_DOUBLE_EQ(recovered.duration_us, 12345.0);
  EXPECT_EQ(result.zones_recovered, 1u);
  // Only the two fresh zones were executed.
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_FALSE(result.inventories[0].zones[1].recovered);
  EXPECT_EQ(result.inventories[0].zones[1].attempts, 1u);
}

TEST(FleetOrchestrator, CompletedRunLeavesAFinishedJournal) {
  storage::MemoryBackend backend;
  util::Rng rng(111);
  fleet::FleetOrchestrator orchestrator(
      {.seed = 41, .threads = 2, .journal_backend = &backend});
  orchestrator.submit(make_trp_spec("ware", 60, 2, 30, rng));
  const fleet::FleetResult result = orchestrator.run();
  ASSERT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);

  const auto scan = storage::scan_fleet_journal(backend.read("fleet.journal"));
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  // start + one record per zone + end.
  ASSERT_EQ(scan.records.size(), 2u + result.zones);
  EXPECT_TRUE(std::holds_alternative<storage::FleetRunEndRecord>(
      scan.records.back()));
  // A restart after completion recovers nothing (the run is finished).
  EXPECT_TRUE(storage::recover_interrupted_run_checked(scan, 41, "fleet", 0)
                  .zones.empty());
}

TEST(FleetOrchestrator, FleetWithNothingMonitoredIsInconclusive) {
  // "Intact" asserts the pigeonhole guarantee held, which requires zones to
  // have actually run — a run that monitored nothing must not report it.
  fleet::FleetOrchestrator orchestrator({.seed = 7, .threads = 2});
  const fleet::FleetResult result = orchestrator.run();
  EXPECT_TRUE(result.inventories.empty());
  EXPECT_EQ(result.zones, 0u);
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kInconclusive);
}

// --------------------------------------------------------- guard rails ----

TEST(FleetOrchestrator, RejectsDuplicateInventoryNames) {
  util::Rng rng(112);
  fleet::FleetOrchestrator orchestrator({.seed = 43});
  orchestrator.submit(make_trp_spec("dup", 30, 1, 0, rng));
  EXPECT_THROW(orchestrator.submit(make_trp_spec("dup", 30, 1, 0, rng)),
               std::invalid_argument);
}

TEST(FleetOrchestrator, UnsatisfiableUtrpSpecThrowsFromSubmit) {
  // Zones are sized at submit, so a budget no frame can beat surfaces here,
  // on the caller's thread, and again on a retry (failures are not cached).
  util::Rng rng(113);
  fleet::FleetOrchestrator orchestrator({.seed = 44, .threads = 2});
  for (int attempt = 0; attempt < 2; ++attempt) {
    fleet::InventorySpec spec = make_trp_spec("hopeless", 60, 2, 30, rng);
    spec.protocol = fleet::Protocol::kUtrp;
    spec.comm_budget = 1'000'000'000;
    try {
      (void)orchestrator.submit(std::move(spec));
      ADD_FAILURE() << "submit accepted an unsatisfiable UTRP spec";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("frame optimization"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------- supervised shutdown ----

TEST(FleetOrchestrator, AbortSwitchAbandonsRunWithoutEndRecord) {
  // A single-reader and a fused (k = 3) inventory abort alike: no zone
  // starts, so each reports crashed with no attempts and no reader reports.
  for (const std::uint32_t readers : {1u, 3u}) {
    SCOPED_TRACE("readers = " + std::to_string(readers));
    storage::MemoryBackend backend;
    std::stop_source abort;
    abort.request_stop();  // killed before any zone starts
    {
      util::Rng rng(114);
      fleet::FleetConfig config{.seed = 53, .threads = 2};
      config.journal_backend = &backend;
      config.abort = abort.get_token();
      fleet::FleetOrchestrator orchestrator(std::move(config));
      fleet::InventorySpec spec = make_trp_spec("ware", 90, 3, 30, rng);
      spec.fusion.readers = readers;
      orchestrator.submit(std::move(spec));
      const fleet::FleetResult result = orchestrator.run();

      EXPECT_TRUE(result.aborted);
      EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kInconclusive);
      for (const fleet::ZoneReport& zone : result.inventories[0].zones) {
        EXPECT_EQ(zone.status, fleet::ZoneStatus::kFailed);
        EXPECT_EQ(zone.last_failure, wire::FailureReason::kCrashed);
        EXPECT_EQ(zone.attempts, 0u);
        EXPECT_TRUE(zone.readers.empty());
      }
    }
    // No end record was journaled, so a restart treats the run as
    // interrupted and completes it.
    const auto scan =
        storage::scan_fleet_journal(backend.read("fleet.journal"));
    EXPECT_FALSE(std::holds_alternative<storage::FleetRunEndRecord>(
        scan.records.back()));

    util::Rng rng(114);
    fleet::FleetConfig config{.seed = 53, .threads = 2};
    config.journal_backend = &backend;
    fleet::FleetOrchestrator orchestrator(std::move(config));
    fleet::InventorySpec spec = make_trp_spec("ware", 90, 3, 30, rng);
    spec.fusion.readers = readers;
    orchestrator.submit(std::move(spec));
    const fleet::FleetResult result = orchestrator.run();
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  }
}

TEST(FleetOrchestrator, AbortSwitchMidRunKeepsFinishedZoneForRestart) {
  // The kill switch flips inside the first zone record's journal append, on
  // the only thread of a one-thread run. That zone is finished and
  // journaled; every later zone's attempt returns at its check before it
  // starts, so no other zone runs or journals anything.
  std::stop_source abort;
  HookedBackend backend([&abort](const std::string& name) {
    // The begin record is staged under a temporary name.
    if (name == "fleet.journal") abort.request_stop();
  });
  {
    util::Rng rng(118);
    fleet::FleetConfig config{.seed = 71, .threads = 1};
    config.journal_backend = &backend;
    config.abort = abort.get_token();
    fleet::FleetOrchestrator orchestrator(std::move(config));
    orchestrator.submit(make_trp_spec("ware", 120, 4, 30, rng));
    const fleet::FleetResult result = orchestrator.run();

    EXPECT_TRUE(result.aborted);
    EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kInconclusive);
    EXPECT_EQ(result.attempts, 1u);
    const std::vector<fleet::ZoneReport>& zones = result.inventories[0].zones;
    ASSERT_EQ(zones.size(), 4u);
    EXPECT_EQ(zones[0].status, fleet::ZoneStatus::kIntact);
    EXPECT_EQ(zones[0].attempts, 1u);
    for (std::size_t z = 1; z < zones.size(); ++z) {
      SCOPED_TRACE("zone " + std::to_string(z));
      EXPECT_EQ(zones[z].status, fleet::ZoneStatus::kFailed);
      EXPECT_EQ(zones[z].last_failure, wire::FailureReason::kCrashed);
      EXPECT_EQ(zones[z].attempts, 0u);
    }
  }
  // The journal holds the start record and zone 0's record, and no end
  // record.
  const auto scan = storage::scan_fleet_journal(backend.read("fleet.journal"));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_TRUE(
      std::holds_alternative<storage::FleetZoneRecord>(scan.records.back()));

  // A restart with the same seed reuses the journaled zone and runs the
  // other three to an intact verdict.
  util::Rng rng(118);
  fleet::FleetConfig config{.seed = 71, .threads = 1};
  config.journal_backend = &backend;
  fleet::FleetOrchestrator orchestrator(std::move(config));
  orchestrator.submit(make_trp_spec("ware", 120, 4, 30, rng));
  const fleet::FleetResult result = orchestrator.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  EXPECT_EQ(result.zones_recovered, 1u);
  EXPECT_TRUE(result.inventories[0].zones[0].recovered);
  EXPECT_EQ(result.attempts, 3u);
}

TEST(FleetOrchestrator, RecoveredRunWithChangedPlanIsQuarantined) {
  // Interrupt a journaled run mid-flight with an injected storage crash...
  storage::MemoryBackend inner;
  {
    fault::StorageFaultPlan plan;
    plan.crash_at_op = 5;  // past journal begin, inside the zone records
    fault::FaultyBackend backend(inner, plan);
    util::Rng rng(115);
    fleet::FleetConfig config{.seed = 59, .threads = 1};
    config.journal_backend = &backend;
    fleet::FleetOrchestrator orchestrator(std::move(config));
    orchestrator.submit(make_trp_spec("ware", 90, 3, 30, rng));
    EXPECT_THROW((void)orchestrator.run(), fault::CrashInjected);
  }
  inner.crash();  // the process died; unflushed bytes are gone

  // ...then restart with a CHANGED plan (different tolerance): the
  // journaled zones carry tolerances from the old plan, so folding them in
  // would silently break the pigeonhole argument. They must be quarantined
  // and every zone re-executed.
  {
    util::Rng rng(115);
    fleet::FleetConfig config{.seed = 59, .threads = 2};
    config.journal_backend = &inner;
    fleet::FleetOrchestrator orchestrator(std::move(config));
    orchestrator.submit(make_trp_spec("ware", 90, 2, 30, rng));
    const fleet::FleetResult result = orchestrator.run();

    EXPECT_EQ(result.zones_recovered, 0u);
    EXPECT_EQ(result.attempts, 3u);  // everything ran fresh
    bool quarantined = false;
    for (const fleet::FleetAlert& alert : result.alerts) {
      if (alert.kind == fleet::AlertKind::kRecoveredRunQuarantined) {
        quarantined = true;
      }
    }
    EXPECT_TRUE(quarantined);
    EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
  }
}

TEST(FleetOrchestrator, RecoveredRunWithSamePlanIsResumed) {
  // Positive control for the quarantine: same crash, same plan on restart —
  // the journaled zone is reused, no quarantine alert.
  storage::MemoryBackend inner;
  {
    fault::StorageFaultPlan plan;
    plan.crash_at_op = 5;
    fault::FaultyBackend backend(inner, plan);
    util::Rng rng(116);
    fleet::FleetConfig config{.seed = 61, .threads = 1};
    config.journal_backend = &backend;
    fleet::FleetOrchestrator orchestrator(std::move(config));
    orchestrator.submit(make_trp_spec("ware", 90, 3, 30, rng));
    EXPECT_THROW((void)orchestrator.run(), fault::CrashInjected);
  }
  inner.crash();

  util::Rng rng(116);
  fleet::FleetConfig config{.seed = 61, .threads = 2};
  config.journal_backend = &inner;
  fleet::FleetOrchestrator orchestrator(std::move(config));
  orchestrator.submit(make_trp_spec("ware", 90, 3, 30, rng));
  const fleet::FleetResult result = orchestrator.run();

  EXPECT_GE(result.zones_recovered, 1u);
  EXPECT_TRUE(result.alerts.empty());
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kIntact);
}

TEST(FleetOrchestrator, OneThreadRunWorksOnItsCallersThread) {
  // A one-thread run starts no thread: every journal append, from the
  // start record through each zone's record to the end record, comes from
  // the thread that called run(). The run holds several inventories, a
  // requeue, a theft and UTRP zones.
  const auto run_fleet = [](unsigned threads,
                            storage::StorageBackend& backend) {
    util::Rng rng(117);
    fleet::FleetConfig config{.seed = 67, .threads = threads};
    config.journal_backend = &backend;
    fleet::FleetOrchestrator orchestrator(std::move(config));
    fleet::InventorySpec flaky = make_trp_spec("flaky", 90, 3, 30, rng);
    flaky.zone_faults.emplace_back(
        1, fault::parse_fault_plan("crash 10000 never\n"));
    orchestrator.submit(std::move(flaky));
    fleet::InventorySpec looted = make_trp_spec("looted", 120, 3, 40, rng);
    for (std::uint64_t i = 0; i < 10; ++i) looted.stolen.push_back(i);
    orchestrator.submit(std::move(looted));
    fleet::InventorySpec cage;
    cage.name = "utrp-cage";
    cage.protocol = fleet::Protocol::kUtrp;
    cage.tags = tag::TagSet::make_random(60, rng);
    cage.plan = server::plan_groups({.total_tags = 60,
                                     .total_tolerance = 2,
                                     .alpha = 0.95,
                                     .max_group_size = 30});
    cage.comm_budget = 10;
    cage.rounds = 1;
    cage.session.utrp_deadline_us = 10e6;
    orchestrator.submit(std::move(cage));
    return orchestrator.run();
  };

  std::mutex mu;
  std::vector<std::thread::id> appenders;
  HookedBackend backend([&mu, &appenders](const std::string&) {
    const std::lock_guard<std::mutex> lock(mu);
    appenders.push_back(std::this_thread::get_id());
  });
  const fleet::FleetResult one = run_fleet(1, backend);
  EXPECT_EQ(one.threads, 1u);
  EXPECT_EQ(one.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_EQ(one.requeues, 1u);
  EXPECT_EQ(one.zones, 8u);
  EXPECT_EQ(appenders.size(), one.zones + 2);  // + start and end records
  for (const std::thread::id id : appenders) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }

  // At four threads the caller counts as one of them, and the result reads
  // the same.
  storage::MemoryBackend other;
  const fleet::FleetResult four = run_fleet(4, other);
  EXPECT_EQ(four.threads, 4u);
  EXPECT_EQ(fleet::summary(four), fleet::summary(one));
}

TEST(FleetOrchestrator, SixtyFourZonesAcrossFourInventories) {
  // The acceptance scenario: >= 64 zones over >= 4 inventories, mixed
  // verdicts, completed in one run.
  util::Rng rng(113);
  fleet::FleetOrchestrator orchestrator({.seed = 47, .threads = 4});
  // 4 inventories x 16 zones of 20 tags each.
  for (int i = 0; i < 4; ++i) {
    fleet::InventorySpec spec = make_trp_spec("inv" + std::to_string(i), 320,
                                              8, 20, rng);
    spec.rounds = 1;
    if (i == 2) {
      for (std::uint64_t t = 0; t < 6; ++t) spec.stolen.push_back(t);
    }
    orchestrator.submit(std::move(spec));
  }
  const fleet::FleetResult result = orchestrator.run();
  EXPECT_EQ(result.zones, 64u);
  EXPECT_EQ(result.inventories.size(), 4u);
  EXPECT_EQ(result.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_EQ(result.inventories[2].verdict, fleet::GlobalVerdict::kViolated);
  for (const int i : {0, 1, 3}) {
    EXPECT_EQ(result.inventories[static_cast<std::size_t>(i)].verdict,
              fleet::GlobalVerdict::kIntact);
  }
}

}  // namespace
