// Per-tag-vs-kernel microbenchmarks for the columnar kernels: slots/sec for
// the TRP slot choice, frame-fill throughput for the expected-bitstring
// path (the server's kernel against the per-tag loop written out below),
// the expected-cache fast path, fleet-scale end-to-end runs (through the
// one-shot adapter and over a prepared population), the filter-first
// identification campaign the fleet runs on a violated zone, the UTRP
// walks of the server's mirror and of the reader's tags, and the server's
// half of a UTRP round.
// items_per_second reads as tag-slots/sec (or zones for the fleet case);
// the acceptance bar is >= 5x bulk over scalar at n = 10^6 on the frame
// path. Numbers are recorded in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bitstring/bitstring.h"
#include "fleet/fleet.h"
#include "hash/slot_hash.h"
#include "math/frame_optimizer.h"
#include "protocol/identification.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "server/group_planner.h"
#include "server/inventory_server.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;

/// Frame sized like a realistic Eq. (2) plan at this n (about n slots).
std::uint32_t frame_for(std::uint64_t n) {
  return static_cast<std::uint32_t>(n < 64 ? 64 : n);
}

void BM_ScalarTrpSlots(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(1);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  const hash::SlotHasher hasher;
  const std::uint32_t f = frame_for(n);
  std::vector<std::uint32_t> out(n);
  std::uint64_t r = 0;
  for (auto _ : state) {
    ++r;
    for (std::size_t i = 0; i < set.size(); ++i) {
      out[i] = set.at(i).trp_slot(hasher, r, f);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_BulkTrpSlots(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(1);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  const tag::ColumnarTagSet columnar = tag::ColumnarTagSet::from_tag_set(set);
  const hash::SlotHasher hasher;
  const std::uint32_t f = frame_for(n);
  std::vector<std::uint32_t> out(n);
  std::uint64_t r = 0;
  for (auto _ : state) {
    ++r;
    tag::bulk_trp_slots(hasher, columnar.slot_words(), r, f, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// The per-tag expected bitstring: one hash and one Bitstring::set per
/// enrolled id, at the frame size the server would use.
void BM_ScalarExpectedBitstring(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(2);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  const std::vector<tag::TagId> ids = set.ids();
  const std::uint32_t f =
      math::optimize_trp_frame(n, n / 100 + 1, 0.95).frame_size;
  const hash::SlotHasher hasher;
  std::uint64_t r = 0;
  for (auto _ : state) {
    ++r;
    bits::Bitstring bs(f);
    for (const tag::TagId& id : ids) bs.set(hasher.slot(id.slot_word(), r, f));
    benchmark::DoNotOptimize(bs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_BulkExpectedBitstring(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(2);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  protocol::TrpServer server(set.ids(),
                             {.tolerated_missing = n / 100 + 1,
                              .confidence = 0.95});
  std::uint64_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.expected_bitstring({server.frame_size(), ++r}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// The repeated-challenge path the InventoryServer cache serves: after the
/// first submission, every verify is O(f/64) word compares — no hashing.
void BM_CachedRepeatVerify(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(3);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  server::InventoryServer inv;
  server::GroupConfig cfg;
  cfg.name = "bench";
  cfg.policy = {.tolerated_missing = n / 100 + 1, .confidence = 0.95};
  const auto id = inv.enroll(set, cfg);
  const auto challenge = inv.challenge_trp(id, rng);
  const protocol::TrpServer oracle(set.ids(), cfg.policy);
  const bits::Bitstring honest = oracle.expected_bitstring(challenge);
  (void)inv.submit_trp(id, challenge, honest);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(inv.submit_trp(id, challenge, honest));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// One fleet inventory at 10^6 tags per zone: the end-to-end cost of a full
/// multi-zone monitoring run at the ROADMAP scale.
void BM_FleetMillionTagZones(benchmark::State& state) {
  constexpr std::uint64_t kTags = 2000000;  // 2 zones x 10^6
  constexpr std::uint64_t kZoneCapacity = 1000000;
  util::Rng rng(4);
  const tag::TagSet population = tag::TagSet::make_random(kTags, rng);
  const server::GroupPlan plan =
      server::plan_groups({.total_tags = kTags,
                           .total_tolerance = kTags / 100,
                           .alpha = 0.95,
                           .max_group_size = kZoneCapacity});
  std::uint64_t zones = 0;
  for (auto _ : state) {
    fleet::FleetConfig config;
    config.seed = 99;
    config.threads = 2;
    fleet::FleetOrchestrator orchestrator(std::move(config));
    fleet::InventorySpec spec;
    spec.name = "warehouse";
    spec.tags = population;
    spec.plan = plan;
    spec.rounds = 1;
    (void)orchestrator.submit(std::move(spec));
    const fleet::FleetResult result = orchestrator.run();
    benchmark::DoNotOptimize(result.verdict);
    zones += result.zones;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(zones));
}

/// The service's fleet_2m run shape over one prepared population: 2 zones
/// of 10^6 tags enrolled once, every iteration a 2000-tag theft in zone 1
/// with the drill-down on. Runs borrow the population, so an iteration
/// pays for the theft zone's filtered present tags, detection and the
/// identification campaign, not for copying or columnarizing 2·10^6 tags.
void BM_FleetPreparedMillionTagZones(benchmark::State& state) {
  constexpr std::uint64_t kTags = 2000000;  // 2 zones x 10^6
  constexpr std::uint64_t kZoneCapacity = 1000000;
  constexpr std::uint64_t kStolen = 2000;
  util::Rng rng(4);
  const auto population = fleet::PreparedPopulation::prepare(
      tag::TagSet::make_random(kTags, rng),
      server::plan_groups({.total_tags = kTags,
                           .total_tolerance = kTags / 2000,
                           .alpha = 0.95,
                           .max_group_size = kZoneCapacity}));
  std::vector<std::uint64_t> stolen;
  for (std::uint64_t i = 0; i < kStolen; ++i) {
    stolen.push_back(kZoneCapacity + i * (kZoneCapacity / kStolen));
  }
  std::uint64_t named = 0;
  for (auto _ : state) {
    fleet::FleetConfig config;
    config.seed = 99;
    config.threads = 2;
    fleet::FleetOrchestrator orchestrator(std::move(config));
    fleet::InventorySpec spec;
    spec.name = "warehouse";
    spec.stolen = stolen;
    spec.rounds = 1;
    spec.identify.enabled = true;
    (void)orchestrator.submit(std::move(spec), population);
    const fleet::FleetResult result = orchestrator.run();
    benchmark::DoNotOptimize(result.verdict);
    named += result.tags_named;
  }
  state.counters["tags_named"] = benchmark::Counter(
      static_cast<double>(named), benchmark::Counter::kAvgIterations);
}

/// One filter-first identification campaign on an n-tag zone with 0.2% of
/// it stolen, ideal channel: the host cost of the drill-down that names the
/// stolen tags after a violated TRP verdict.
void BM_FilterFirstIdentify(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(5);
  tag::TagSet set = tag::TagSet::make_random(n, rng);
  const std::vector<tag::TagId> enrolled = set.ids();
  (void)set.steal_random(n / 500, rng);
  const auto identifier = protocol::make_identification_protocol(
      protocol::IdentifyProtocolKind::kFilterFirst, {});
  const hash::SlotHasher hasher;
  for (auto _ : state) {
    util::Rng campaign_rng(6);  // every iteration runs the same campaign
    const protocol::IdentifyResult result =
        identifier->identify(enrolled, set.tags(), hasher, campaign_rng);
    benchmark::DoNotOptimize(result.missing.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// The inputs of one UTRP zone at an Eq. (3) frame: n random tags and 64
/// challenges issued to them. n = 250 is svc_utrp's zone plan (m = 2,
/// alpha = 0.95, c = 100, slack 8: f = 863); n = 2000 keeps its tolerance
/// share (m = 16).
struct UtrpZone {
  tag::TagSet tags;
  std::vector<protocol::UtrpChallenge> challenges;
  std::uint32_t frame_size = 0;
};

UtrpZone utrp_zone(std::uint64_t n) {
  const math::UtrpPlan plan =
      math::optimize_utrp_frame(n, n * 2 / 250, 0.95, 100, 8);
  util::Rng rng(7);
  UtrpZone zone{tag::TagSet::make_random(n, rng),
                std::vector<protocol::UtrpChallenge>(64), plan.frame_size};
  for (protocol::UtrpChallenge& challenge : zone.challenges) {
    challenge.frame_size = plan.frame_size;
    for (std::uint32_t i = 0; i < plan.frame_size; ++i) {
      challenge.seeds.push_back(rng());
    }
  }
  return zone;
}

/// The server's UTRP mirror walk (protocol::utrp_scan_columnar, the one
/// walk UtrpServer::commit_round runs per zone). Each iteration walks the
/// next of the zone's challenges in place, so the counters advance as a
/// committed mirror's do. items_per_second reads as slot computations
/// (counter bump + hash) per second.
void BM_UtrpMirrorWalk(benchmark::State& state) {
  const UtrpZone zone = utrp_zone(static_cast<std::uint64_t>(state.range(0)));
  tag::ColumnarTagSet mirror = tag::ColumnarTagSet::from_tag_set(zone.tags);
  const hash::SlotHasher hasher;
  std::uint64_t hashed = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const protocol::UtrpScanResult scan = protocol::utrp_scan_columnar(
        mirror, hasher, zone.challenges[next++ % zone.challenges.size()]);
    benchmark::DoNotOptimize(scan.bitstring);
    hashed += scan.slots_hashed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hashed));
  state.counters["frame"] = zone.frame_size;
}

/// The reader's twin of BM_UtrpMirrorWalk: protocol::utrp_scan walks the
/// zone's physical tags (a TagSet) in place over the same challenges, the
/// scan every UTRP wire session runs once per zone.
void BM_UtrpReaderWalk(benchmark::State& state) {
  UtrpZone zone = utrp_zone(static_cast<std::uint64_t>(state.range(0)));
  const hash::SlotHasher hasher;
  std::uint64_t hashed = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const protocol::UtrpScanResult scan = protocol::utrp_scan(
        zone.tags.tags(), hasher,
        zone.challenges[next++ % zone.challenges.size()]);
    benchmark::DoNotOptimize(scan.bitstring);
    hashed += scan.slots_hashed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hashed));
  state.counters["frame"] = zone.frame_size;
}

/// The server's half of one UTRP round as a wire session runs it:
/// UtrpServer::commit_round judging the honest report of the zone's next
/// challenge. The reports are the reader's scans of a copy of the zone,
/// taken round after round before timing starts. After the zone's 64
/// challenges the server re-enrolls the zone, untimed, and the cycle
/// starts again, so every round is intact.
void BM_UtrpServerRound(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const UtrpZone zone = utrp_zone(n);
  tag::TagSet reader_tags = zone.tags;
  std::vector<bits::Bitstring> reports;
  for (const protocol::UtrpChallenge& challenge : zone.challenges) {
    reports.push_back(
        protocol::utrp_scan(reader_tags.tags(), hash::SlotHasher{}, challenge)
            .bitstring);
  }
  protocol::UtrpServer server(
      zone.tags, {.tolerated_missing = n * 2 / 250, .confidence = 0.95}, 100);
  if (server.frame_size() != zone.frame_size) {
    state.SkipWithError("server frame differs from the zone plan");
    return;
  }
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == zone.challenges.size()) {
      state.PauseTiming();
      server.resync(zone.tags);
      next = 0;
      state.ResumeTiming();
    }
    const protocol::Verdict verdict =
        server.commit_round(zone.challenges[next], reports[next]);
    benchmark::DoNotOptimize(verdict);
    if (!verdict.intact) {
      state.SkipWithError("an honest round was not intact");
      break;
    }
    ++next;
  }
  state.counters["frame"] = zone.frame_size;
}

}  // namespace

BENCHMARK(BM_ScalarTrpSlots)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Arg(10000000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BulkTrpSlots)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Arg(10000000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScalarExpectedBitstring)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BulkExpectedBitstring)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedRepeatVerify)->Arg(1000000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FleetMillionTagZones)->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_FleetPreparedMillionTagZones)->Unit(benchmark::kMillisecond)
    ->Iterations(4);
BENCHMARK(BM_FilterFirstIdentify)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UtrpMirrorWalk)->Arg(250)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_UtrpReaderWalk)->Arg(250)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_UtrpServerRound)->Arg(250)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
