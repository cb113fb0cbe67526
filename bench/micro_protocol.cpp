// Microbenchmarks for whole protocol rounds: what one monitoring pass costs
// in simulation (the unit of work behind every figure trial).
#include <benchmark/benchmark.h>

#include "protocol/collect_all.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;

void BM_TrpRound(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(1);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  const protocol::TrpServer server(
      set.ids(), {.tolerated_missing = 10, .confidence = 0.95});
  const protocol::TrpReader reader;
  for (auto _ : state) {
    const auto c = server.issue_challenge(rng);
    const auto bs = reader.scan(set.tags(), c, rng);
    benchmark::DoNotOptimize(server.verify(c, bs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_UtrpRound(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(2);
  tag::TagSet set = tag::TagSet::make_random(n, rng);
  protocol::UtrpServer server(set, {.tolerated_missing = 10, .confidence = 0.95},
                              20);
  const protocol::UtrpReader reader;
  for (auto _ : state) {
    const auto c = server.issue_challenge(rng);
    const auto scan = reader.scan(set.tags(), c);
    benchmark::DoNotOptimize(server.commit_round(c, scan.bitstring));
    set.begin_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_CollectAllRound(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(3);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  const hash::SlotHasher hasher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::run_collect_all(
        set.tags(), hasher, {.stop_after_collected = n - 10}, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_TagSetCreation(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tag::TagSet::make_random(n, rng));
  }
}

}  // namespace

BENCHMARK(BM_TrpRound)->Arg(100)->Arg(1000)->Arg(5000);
BENCHMARK(BM_UtrpRound)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CollectAllRound)->Arg(100)->Arg(1000)->Arg(5000);
BENCHMARK(BM_TagSetCreation)->Arg(1000)->Arg(10000);
