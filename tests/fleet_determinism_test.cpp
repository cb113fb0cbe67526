// The fleet determinism contract, pinned down byte-for-byte: the same
// seeded fleet run at threads=1 and threads=8 must produce identical
// aggregated verdicts, summary text, metric exposition (Prometheus and
// JSON, session log included), and trace renderings. Everything random
// derives from the fleet seed and the work's place in the fleet — never
// from thread identity or scheduling order: an attempt's RNG from (fleet
// seed, inventory, zone, attempt), a fused reader's from that and then
// (reader + 1, kReaderSalt); a fused zone's challenge stream from (fleet
// seed, inventory, zone) with kChallengeSalt and no attempt; the
// drill-down from (fleet seed, inventory, zone) with kIdentifySalt. The
// orchestrator records observability post-run in deterministic order, so
// none of the order-sensitive sinks (histogram FP sums, span ids, log
// entries) can drift with the thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "fault/fault.h"
#include "fleet/fleet.h"
#include "hash/fnv.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "server/group_planner.h"
#include "storage/backend.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;

struct Rendered {
  fleet::GlobalVerdict verdict;
  std::string summary;
  std::string prometheus;
  std::string json;
  std::string trace;
  std::string journal;
};

std::uint64_t fnv_of(std::string_view bytes) {
  return hash::fnv1a64(std::as_bytes(std::span(bytes.data(), bytes.size())));
}

// fnv1a64 of every rendering at threads = 1. Comparing 1 thread with 8
// catches only drift with scheduling; a change that alters both runs alike
// (a lost `reader` trace annotation, a relabelled session-log entry, a
// reordered journal record) fails here. At one thread run() queues each
// whole wave before any attempt runs and then drains the pool itself,
// taking the attempts in a fixed order: earliest deadline first, ties in
// submission order. Even the journal's record order is fixed. The pins were taken once and are never regenerated to make a
// change pass.
struct Pins {
  std::uint64_t summary;
  std::uint64_t prometheus;
  std::uint64_t json;
  std::uint64_t trace;
  std::uint64_t journal;
};

void expect_pinned(const Rendered& r, const Pins& pins) {
  EXPECT_EQ(fnv_of(r.summary), pins.summary) << r.summary;
  EXPECT_EQ(fnv_of(r.prometheus), pins.prometheus);
  EXPECT_EQ(fnv_of(r.json), pins.json);
  EXPECT_EQ(fnv_of(r.trace), pins.trace);
  EXPECT_EQ(fnv_of(r.journal), pins.journal);
}

// A fleet that exercises every code path whose ordering could leak thread
// identity: clean TRP zones, a theft (violated verdict), a crash-then-retry
// zone (requeue), a permanently dark zone (escalation), a UTRP inventory
// with an Alg. 5 deadline (EDF priority + mirror resync on retry), and an
// admission capacity that forces a second wave.
Rendered run_fleet(unsigned threads) {
  obs::MetricsRegistry metrics;
  double clock = 0.0;
  obs::Tracer tracer([&clock] { return clock += 1.0; });
  obs::SessionLog log(256);
  storage::MemoryBackend backend;

  fleet::FleetOrchestrator orchestrator({.seed = 4242,
                                         .threads = threads,
                                         .max_zone_attempts = 3,
                                         .admission_capacity = 8,
                                         .fleet_name = "det-fleet",
                                         .metrics = &metrics,
                                         .tracer = &tracer,
                                         .session_log = &log,
                                         .journal_backend = &backend});

  util::Rng rng(2026);  // same population every call

  {
    fleet::InventorySpec spec;
    spec.name = "clean";
    spec.tags = tag::TagSet::make_random(120, rng);
    spec.plan = server::plan_groups({.total_tags = 120,
                                     .total_tolerance = 4,
                                     .alpha = 0.95,
                                     .max_group_size = 30});
    spec.rounds = 2;
    orchestrator.submit(std::move(spec));
  }
  {
    fleet::InventorySpec spec;
    spec.name = "looted";
    spec.tags = tag::TagSet::make_random(90, rng);
    spec.plan = server::plan_groups({.total_tags = 90,
                                     .total_tolerance = 3,
                                     .alpha = 0.95,
                                     .max_group_size = 30});
    spec.rounds = 2;
    for (std::uint64_t i = 0; i < 8; ++i) spec.stolen.push_back(i);
    spec.zone_faults.emplace_back(
        1, fault::parse_fault_plan("crash 10000 never\n"));
    // Drill-down on the theft: its named-tag list, identify_* metrics, and
    // summary lines must all be thread-count invariant too.
    spec.identify.enabled = true;
    orchestrator.submit(std::move(spec));
  }
  {
    fleet::InventorySpec spec;
    spec.name = "dark";
    spec.tags = tag::TagSet::make_random(30, rng);
    spec.plan = server::plan_groups({.total_tags = 30,
                                     .total_tolerance = 1,
                                     .alpha = 0.95,
                                     .max_group_size = 0});
    spec.rounds = 1;
    spec.session.uplink.drop_prob = 1.0;
    spec.session.max_retries = 2;
    orchestrator.submit(std::move(spec));
  }
  {
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
    spec.zone_faults.emplace_back(
        0, fault::parse_fault_plan("crash 10000 never\n"));
    orchestrator.submit(std::move(spec));
  }

  const fleet::FleetResult result = orchestrator.run();
  Rendered out{result.verdict,
               fleet::summary(result),
               obs::render_prometheus(metrics.snapshot()),
               obs::render_json(metrics.snapshot(), &log),
               tracer.render(),
               backend.read("fleet.journal")};
  return out;
}

TEST(FleetDeterminism, MixedFleetIsBitIdenticalAcrossThreadCounts) {
  const Rendered one = run_fleet(1);
  const Rendered eight = run_fleet(8);

  EXPECT_EQ(one.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_EQ(one.verdict, eight.verdict);
  EXPECT_EQ(one.summary, eight.summary);
  EXPECT_EQ(one.prometheus, eight.prometheus);
  EXPECT_EQ(one.json, eight.json);
  EXPECT_EQ(one.trace, eight.trace);
  // The journal's zone records may legitimately appear in any order
  // (workers race to append), so byte-comparing it would be wrong; but its
  // CONTENT folded through recovery is canonical.
  const auto scan_one = storage::scan_fleet_journal(one.journal);
  const auto scan_eight = storage::scan_fleet_journal(eight.journal);
  EXPECT_EQ(scan_one.records.size(), scan_eight.records.size());
  expect_pinned(one, {.summary = 0x4bdfa24139b7fbaaULL,
                      .prometheus = 0x222e507d249e7410ULL,
                      .json = 0xca2f676212d8828dULL,
                      .trace = 0x809f5d8fa4538f64ULL,
                      .journal = 0x70028575d4c596e0ULL});

  // The interesting paths really ran.
  EXPECT_NE(one.summary.find("requeues: "), std::string::npos);
  EXPECT_NE(one.summary.find("zone_escalated"), std::string::npos);
  EXPECT_NE(one.summary.find("identified [filter_first]"), std::string::npos);
  EXPECT_NE(one.prometheus.find("rfidmon_identify_campaigns_total"),
            std::string::npos);
  EXPECT_NE(one.prometheus.find("rfidmon_fleet_runs_total"),
            std::string::npos);
  EXPECT_NE(one.json.find("\"fleet\":\"det-fleet\""), std::string::npos);
}

// The ISSUE acceptance scenario: >= 64 zones across >= 4 inventories, run
// to completion with a correct aggregated verdict, bit-identical at 1 and
// 8 threads.
Rendered run_big_fleet(unsigned threads) {
  obs::MetricsRegistry metrics;
  double clock = 0.0;
  obs::Tracer tracer([&clock] { return clock += 1.0; });
  obs::SessionLog log(256);
  storage::MemoryBackend backend;

  fleet::FleetOrchestrator orchestrator({.seed = 777,
                                         .threads = threads,
                                         .fleet_name = "big-fleet",
                                         .metrics = &metrics,
                                         .tracer = &tracer,
                                         .session_log = &log,
                                         .journal_backend = &backend});
  util::Rng rng(555);
  for (int i = 0; i < 4; ++i) {
    fleet::InventorySpec spec;
    spec.name = "inv" + std::to_string(i);
    spec.tags = tag::TagSet::make_random(320, rng);
    spec.plan = server::plan_groups({.total_tags = 320,
                                     .total_tolerance = 8,
                                     .alpha = 0.95,
                                     .max_group_size = 20});
    spec.rounds = 1;
    if (i == 1) {
      for (std::uint64_t t = 0; t < 6; ++t) spec.stolen.push_back(t);
    }
    orchestrator.submit(std::move(spec));
  }
  const fleet::FleetResult result = orchestrator.run();
  EXPECT_EQ(result.zones, 64u);
  return Rendered{result.verdict,
                  fleet::summary(result),
                  obs::render_prometheus(metrics.snapshot()),
                  obs::render_json(metrics.snapshot(), &log),
                  tracer.render(),
                  backend.read("fleet.journal")};
}

TEST(FleetDeterminism, SixtyFourZoneFleetIsBitIdenticalAcrossThreadCounts) {
  const Rendered one = run_big_fleet(1);
  const Rendered eight = run_big_fleet(8);
  EXPECT_EQ(one.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_EQ(one.verdict, eight.verdict);
  EXPECT_EQ(one.summary, eight.summary);
  EXPECT_EQ(one.prometheus, eight.prometheus);
  EXPECT_EQ(one.json, eight.json);
  EXPECT_EQ(one.trace, eight.trace);
  expect_pinned(one, {.summary = 0xba8b5f427e21257eULL,
                      .prometheus = 0xa4377102f002c588ULL,
                      .json = 0x0f838a0d7384b2d2ULL,
                      .trace = 0xb47dd2df48153b7aULL,
                      .journal = 0x54cf850e44ffd3fbULL});
}

// A fused fleet (k = 3 readers per zone): per-reader sessions fan out to
// the pool and race to finalize the zone, so this pins down the fan-in
// path specifically — the LAST terminal reader runs the fusion, whichever
// thread that lands on, and the fused verdict, trust/suspect flags,
// fusion_* metrics, per-reader session-log entries, and degraded-round
// accounting must not care. One zone carries an adversarial reader, one a
// correlated Gilbert-Elliott burst, and one is clean.
Rendered run_fused_fleet(unsigned threads) {
  obs::MetricsRegistry metrics;
  double clock = 0.0;
  obs::Tracer tracer([&clock] { return clock += 1.0; });
  obs::SessionLog log(256);
  storage::MemoryBackend backend;

  fleet::FleetOrchestrator orchestrator({.seed = 9000,
                                         .threads = threads,
                                         .max_zone_attempts = 2,
                                         .fleet_name = "fused-fleet",
                                         .metrics = &metrics,
                                         .tracer = &tracer,
                                         .session_log = &log,
                                         .journal_backend = &backend});
  util::Rng rng(808);
  fleet::InventorySpec spec;
  spec.name = "triplex";
  spec.tags = tag::TagSet::make_random(120, rng);
  spec.plan = server::plan_groups({.total_tags = 120,
                                   .total_tolerance = 4,
                                   .alpha = 0.95,
                                   .max_group_size = 40});
  spec.rounds = 2;
  spec.fusion.readers = 3;
  spec.fusion.slot_loss = 0.005;
  // The theft and the forger share zone 0: an adversary forging "all
  // present" is only visible (and only harmful) where tags are missing.
  for (std::uint64_t t = 0; t < 6; ++t) spec.stolen.push_back(t);
  spec.dishonest_readers.emplace_back(0, 2);
  spec.zone_faults.emplace_back(
      0, fault::parse_multi_reader_fault_plan(
             "correlated\nburst 0.02 0.3 1.0 0.0\n"));
  orchestrator.submit(std::move(spec));

  const fleet::FleetResult result = orchestrator.run();
  EXPECT_EQ(result.readers_suspected, 1u);  // the zone-1 forger
  return Rendered{result.verdict,
                  fleet::summary(result),
                  obs::render_prometheus(metrics.snapshot()),
                  obs::render_json(metrics.snapshot(), &log),
                  tracer.render(),
                  backend.read("fleet.journal")};
}

TEST(FleetDeterminism, FusedFleetIsBitIdenticalAcrossThreadCounts) {
  const Rendered one = run_fused_fleet(1);
  const Rendered eight = run_fused_fleet(8);
  EXPECT_EQ(one.verdict, fleet::GlobalVerdict::kViolated);
  EXPECT_EQ(one.verdict, eight.verdict);
  EXPECT_EQ(one.summary, eight.summary);
  EXPECT_EQ(one.prometheus, eight.prometheus);
  EXPECT_EQ(one.json, eight.json);
  EXPECT_EQ(one.trace, eight.trace);
  const auto scan_one = storage::scan_fleet_journal(one.journal);
  const auto scan_eight = storage::scan_fleet_journal(eight.journal);
  EXPECT_EQ(scan_one.records.size(), scan_eight.records.size());
  expect_pinned(one, {.summary = 0xf6bd8081e0219e55ULL,
                      .prometheus = 0x71520f36d8ac8c3cULL,
                      .json = 0x05ab00ffdc610914ULL,
                      .trace = 0x1940985fd0cc266dULL,
                      .journal = 0x1bf84747ca40127bULL});

  // The fused paths really ran and really rendered.
  EXPECT_NE(one.prometheus.find("rfidmon_fusion_slots_fused_total"),
            std::string::npos);
  EXPECT_NE(one.prometheus.find("rfidmon_fusion_votes_overruled_total"),
            std::string::npos);
  EXPECT_NE(one.json.find("\"reader\":"), std::string::npos);
  EXPECT_NE(one.summary.find("suspects: 1"), std::string::npos);
}

}  // namespace
