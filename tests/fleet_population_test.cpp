// One PreparedPopulation serving many runs. A run borrows its zones from the
// shared population instead of copying them, so the battery pins two things
// down: every borrowing run reports exactly what the one-shot adapter
// reports on a fresh TagSet (summary text, every ZoneReport field, the named
// tags), on 1 and 4 threads, repeated and concurrent; and no run — a TRP
// zone reading the shared span, a theft zone, a UTRP zone advancing its
// counters through a resync retry, a fused zone with a forging reader —
// changes a single bit of the population it borrowed. A drill-down skip list
// drops the listed zones' campaigns and changes nothing else.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "fleet/fleet.h"
#include "hash/fnv.h"
#include "server/group_planner.h"
#include "storage/backend.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;

constexpr std::uint64_t kTags = 240;  // two zones of 120
constexpr std::uint64_t kZoneTags = 120;
constexpr std::uint64_t kPopulationSeed = 2008;

tag::TagSet make_tags() {
  util::Rng rng(kPopulationSeed);
  return tag::TagSet::make_random(kTags, rng);
}

server::GroupPlan make_plan() {
  return server::plan_groups({.total_tags = kTags,
                              .total_tolerance = 4,
                              .alpha = 0.95,
                              .max_group_size = kZoneTags});
}

struct Scenario {
  std::string name;
  std::function<void(fleet::InventorySpec&)> shape;
};

std::vector<Scenario> scenarios() {
  return {
      {"trp_intact", [](fleet::InventorySpec&) {}},
      {"trp_theft_drill",
       [](fleet::InventorySpec& spec) {
         for (std::uint64_t t = 0; t < 9; ++t) {
           spec.stolen.push_back(kZoneTags + 7 * t);
         }
         spec.identify.enabled = true;
       }},
      {"zone_all_stolen",
       [](fleet::InventorySpec& spec) {
         for (std::uint64_t t = 0; t < kZoneTags; ++t) spec.stolen.push_back(t);
         spec.identify.enabled = true;
       }},
      {"utrp_resync",
       [](fleet::InventorySpec& spec) {
         spec.protocol = fleet::Protocol::kUtrp;
         spec.comm_budget = 10;
         spec.rounds = 1;
         spec.session.utrp_deadline_us = 10e6;
         spec.stolen = {3, 5, kZoneTags + 1};
         spec.zone_faults.emplace_back(
             0, fault::parse_fault_plan("crash 10000 never\n"));
       }},
      {"fused_dishonest",
       [](fleet::InventorySpec& spec) {
         spec.fusion.readers = 3;
         spec.dishonest_readers.emplace_back(1, 2);
         for (std::uint64_t t = 0; t < 10; ++t) {
           spec.stolen.push_back(kZoneTags + t);
         }
       }},
  };
}

fleet::InventorySpec make_spec(const Scenario& scenario) {
  fleet::InventorySpec spec;
  spec.name = "cage";
  spec.rounds = 2;
  scenario.shape(spec);
  return spec;
}

fleet::FleetConfig fleet_config(unsigned threads) {
  return {.seed = 77, .threads = threads, .max_zone_attempts = 3,
          .fleet_name = "shared"};
}

/// The reference: the one-shot adapter over a freshly generated TagSet.
fleet::FleetResult run_adapter(const Scenario& scenario, unsigned threads) {
  fleet::InventorySpec spec = make_spec(scenario);
  spec.tags = make_tags();
  spec.plan = make_plan();
  fleet::FleetOrchestrator orchestrator(fleet_config(threads));
  orchestrator.submit(std::move(spec));
  return orchestrator.run();
}

fleet::FleetResult run_prepared(
    const Scenario& scenario, unsigned threads,
    const std::shared_ptr<const fleet::PreparedPopulation>& population) {
  fleet::FleetOrchestrator orchestrator(fleet_config(threads));
  orchestrator.submit(make_spec(scenario), population);
  return orchestrator.run();
}

void expect_same_run(const fleet::FleetResult& got,
                     const fleet::FleetResult& want, const std::string& what) {
  EXPECT_EQ(fleet::summary(got), fleet::summary(want)) << what;
  ASSERT_EQ(got.inventories.size(), want.inventories.size()) << what;
  for (std::size_t i = 0; i < got.inventories.size(); ++i) {
    const auto& a = got.inventories[i];
    const auto& b = want.inventories[i];
    EXPECT_EQ(a.tags, b.tags) << what;
    EXPECT_EQ(a.tolerance, b.tolerance) << what;
    ASSERT_EQ(a.zones.size(), b.zones.size()) << what;
    for (std::size_t z = 0; z < a.zones.size(); ++z) {
      EXPECT_TRUE(a.zones[z] == b.zones[z]) << what << " zone " << z;
      EXPECT_EQ(a.zones[z].identification.missing,
                b.zones[z].identification.missing)
          << what << " zone " << z;
    }
  }
}

void push_tag(std::vector<std::uint64_t>& words, const tag::TagId& id) {
  words.push_back(id.hi());
  words.push_back(id.lo());
}

/// fnv1a64 over every column of every zone (ids, slot words, counters,
/// silenced words) and over the per-tag population (ids, counters, flags).
std::uint64_t fingerprint(const fleet::PreparedPopulation& population) {
  std::vector<std::uint64_t> words;
  for (const tag::ColumnarTagSet& zone : population.zones()) {
    for (const tag::TagId& id : zone.ids()) push_tag(words, id);
    words.insert(words.end(), zone.slot_words().begin(),
                 zone.slot_words().end());
    words.insert(words.end(), zone.counters().begin(), zone.counters().end());
    words.insert(words.end(), zone.silenced_words().begin(),
                 zone.silenced_words().end());
  }
  for (const tag::Tag& t : population.tags().tags()) {
    push_tag(words, t.id());
    words.push_back(t.counter());
    words.push_back(t.silenced() ? 1 : 0);
  }
  return hash::fnv1a64(std::as_bytes(std::span(words)));
}

TEST(PreparedPopulation, SlicesThePopulationByThePlan) {
  const auto population =
      fleet::PreparedPopulation::prepare(make_tags(), make_plan());
  ASSERT_EQ(population->zones().size(), 2u);
  EXPECT_EQ(population->tags().size(), kTags);
  for (std::size_t z = 0; z < 2; ++z) {
    const tag::ColumnarTagSet& zone = population->zones()[z];
    ASSERT_EQ(zone.size(), kZoneTags);
    for (std::size_t j = 0; j < kZoneTags; ++j) {
      EXPECT_EQ(zone.id(j), population->tags().at(z * kZoneTags + j).id());
    }
  }
}

TEST(PreparedPopulation, RejectsAPlanThatDoesNotCoverThePopulation) {
  EXPECT_THROW((void)fleet::PreparedPopulation::prepare(make_tags(), {}),
               std::invalid_argument);
  server::GroupPlan short_plan = make_plan();
  short_plan.zones.pop_back();
  EXPECT_THROW(
      (void)fleet::PreparedPopulation::prepare(make_tags(), short_plan),
      std::invalid_argument);
}

TEST(PreparedPopulation, ManyRunsMatchTheAdapterAndLeaveThePopulationAsIs) {
  const auto population =
      fleet::PreparedPopulation::prepare(make_tags(), make_plan());
  const std::uint64_t before = fingerprint(*population);
  for (const Scenario& scenario : scenarios()) {
    for (const unsigned threads : {1u, 4u}) {
      const fleet::FleetResult want = run_adapter(scenario, threads);
      for (int repeat = 0; repeat < 3; ++repeat) {
        expect_same_run(run_prepared(scenario, threads, population), want,
                        scenario.name + " threads " + std::to_string(threads) +
                            " repeat " + std::to_string(repeat));
      }
    }
    EXPECT_EQ(fingerprint(*population), before) << scenario.name;
  }
}

TEST(PreparedPopulation, ScenariosExerciseWhatTheyClaim) {
  // Guards the battery itself: each scenario reaches the path it names.
  const auto population =
      fleet::PreparedPopulation::prepare(make_tags(), make_plan());
  const std::vector<Scenario> all = scenarios();
  const auto zones = [&](std::size_t i) {
    return run_prepared(all[i], 2, population).inventories.at(0).zones;
  };
  const auto intact = zones(0);
  EXPECT_EQ(intact[0].status, fleet::ZoneStatus::kIntact);
  EXPECT_EQ(intact[1].status, fleet::ZoneStatus::kIntact);
  const auto theft = zones(1);
  EXPECT_EQ(theft[0].status, fleet::ZoneStatus::kIntact);
  EXPECT_EQ(theft[1].status, fleet::ZoneStatus::kViolated);
  EXPECT_EQ(theft[1].identification.missing.size(), 9u);
  const auto emptied = zones(2);
  EXPECT_EQ(emptied[0].status, fleet::ZoneStatus::kViolated);
  EXPECT_EQ(emptied[0].identification.missing.size(), kZoneTags);
  const auto utrp = zones(3);
  EXPECT_TRUE(utrp[0].resynced);
  EXPECT_GE(utrp[0].attempts, 2u);
  const auto fused = zones(4);
  EXPECT_EQ(fused[1].status, fleet::ZoneStatus::kViolated);
  ASSERT_EQ(fused[1].readers.size(), 3u);
  EXPECT_TRUE(fused[1].readers[2].suspect);
}

TEST(PreparedPopulation, ConcurrentOrchestratorsShareOnePopulation) {
  const auto population =
      fleet::PreparedPopulation::prepare(make_tags(), make_plan());
  const std::uint64_t before = fingerprint(*population);
  const std::vector<Scenario> all = scenarios();
  const Scenario& theft = all[1];
  const Scenario& utrp = all[3];
  const fleet::FleetResult want_theft = run_adapter(theft, 2);
  const fleet::FleetResult want_utrp = run_adapter(utrp, 2);

  fleet::FleetResult got_theft;
  fleet::FleetResult got_utrp;
  std::thread a([&] { got_theft = run_prepared(theft, 2, population); });
  std::thread b([&] { got_utrp = run_prepared(utrp, 2, population); });
  a.join();
  b.join();
  expect_same_run(got_theft, want_theft, "concurrent theft");
  expect_same_run(got_utrp, want_utrp, "concurrent utrp");
  EXPECT_EQ(fingerprint(*population), before);
}

TEST(PreparedPopulation, DrillDownSkipsOnlyTheListedZones) {
  // Both zones are violated; listing zone 0 drops its campaign and nothing
  // else: zone 1 names the same tags, every other report field and the
  // fleet journal's bytes stay as they are.
  const auto population =
      fleet::PreparedPopulation::prepare(make_tags(), make_plan());
  const auto run = [&](std::vector<std::uint64_t> skip,
                       storage::MemoryBackend& backend) {
    // One worker, so zone records reach the journal in zone order.
    fleet::FleetConfig config = fleet_config(1);
    config.journal_backend = &backend;
    fleet::FleetOrchestrator orchestrator(config);
    fleet::InventorySpec spec = make_spec(scenarios()[0]);
    for (std::uint64_t t = 0; t < 9; ++t) {
      spec.stolen.push_back(7 * t);
      spec.stolen.push_back(kZoneTags + 7 * t);
    }
    spec.identify.enabled = true;
    spec.identify.skip_zones = std::move(skip);
    orchestrator.submit(std::move(spec), population);
    return orchestrator.run().inventories.at(0).zones;
  };
  storage::MemoryBackend all_backend;
  storage::MemoryBackend skip_backend;
  const std::vector<fleet::ZoneReport> all = run({}, all_backend);
  const std::vector<fleet::ZoneReport> skipped = run({0}, skip_backend);

  ASSERT_EQ(all.size(), 2u);
  ASSERT_EQ(skipped.size(), 2u);
  for (std::size_t z = 0; z < 2; ++z) {
    EXPECT_EQ(all[z].status, fleet::ZoneStatus::kViolated) << "zone " << z;
    EXPECT_TRUE(all[z].identification.ran) << "zone " << z;
  }
  EXPECT_FALSE(skipped[0].identification.ran);
  EXPECT_TRUE(skipped[0].identification == fleet::ZoneIdentification{});
  EXPECT_TRUE(skipped[1] == all[1]);
  EXPECT_EQ(skipped[1].identification.missing.size(), 9u);
  fleet::ZoneReport without_campaign = all[0];
  without_campaign.identification = {};
  EXPECT_TRUE(skipped[0] == without_campaign);
  const std::string journal = fleet::FleetConfig{}.journal_name;
  EXPECT_FALSE(all_backend.read(journal).empty());
  EXPECT_EQ(skip_backend.read(journal), all_backend.read(journal));

  fleet::FleetOrchestrator orchestrator(fleet_config(1));
  fleet::InventorySpec out_of_range = make_spec(scenarios()[0]);
  out_of_range.identify.skip_zones = {2};
  EXPECT_THROW(orchestrator.submit(std::move(out_of_range), population),
               std::invalid_argument);
}

TEST(PreparedPopulation, PreparedSubmitRejectsASpecThatCarriesTags) {
  const auto population =
      fleet::PreparedPopulation::prepare(make_tags(), make_plan());
  fleet::FleetOrchestrator orchestrator(fleet_config(1));
  fleet::InventorySpec with_tags = make_spec(scenarios()[0]);
  with_tags.tags = make_tags();
  EXPECT_THROW(orchestrator.submit(std::move(with_tags), population),
               std::invalid_argument);
  fleet::InventorySpec with_plan = make_spec(scenarios()[0]);
  with_plan.plan = make_plan();
  EXPECT_THROW(orchestrator.submit(std::move(with_plan), population),
               std::invalid_argument);
  EXPECT_THROW(orchestrator.submit(make_spec(scenarios()[0]), nullptr),
               std::invalid_argument);
  fleet::InventorySpec out_of_range = make_spec(scenarios()[0]);
  out_of_range.stolen = {kTags};
  EXPECT_THROW(orchestrator.submit(std::move(out_of_range), population),
               std::invalid_argument);
}

}  // namespace
