// Microbenchmarks for the wire layer: message encode/decode, the frame
// check a receiving endpoint pays once per frame, and a complete
// message-driven monitoring round on perfect links. The Enroll pair times
// the service's largest payload: fleet_2m's Enroll carries 2 * 10^6 IDs and
// is decoded on the service's IO thread.
#include <benchmark/benchmark.h>

#include "protocol/trp.h"
#include "service/messages.h"
#include "tag/tag_set.h"
#include "util/random.h"
#include "wire/frame.h"
#include "wire/messages.h"
#include "wire/session.h"

namespace {

using namespace rfid;

void BM_EncodeBitstringReport(benchmark::State& state) {
  const auto bits_count = static_cast<std::size_t>(state.range(0));
  bits::Bitstring bs(bits_count);
  for (std::size_t i = 0; i < bits_count; i += 3) bs.set(i);
  const wire::BitstringReport report{"group", 1, bs, 1000.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode(report));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits_count / 8));
}

void BM_DecodeBitstringReport(benchmark::State& state) {
  const auto bits_count = static_cast<std::size_t>(state.range(0));
  bits::Bitstring bs(bits_count);
  for (std::size_t i = 0; i < bits_count; i += 3) bs.set(i);
  const auto frame = wire::encode(wire::BitstringReport{"group", 1, bs, 1000.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wire::decode_bitstring_report(wire::open_frame(frame)));
  }
}

void BM_OpenFrame(benchmark::State& state) {
  const auto bits_count = static_cast<std::size_t>(state.range(0));
  bits::Bitstring bs(bits_count);
  for (std::size_t i = 0; i < bits_count; i += 3) bs.set(i);
  const auto frame = wire::encode(wire::BitstringReport{"group", 1, bs, 1000.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::open_frame(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}

wire::UtrpChallengeMsg utrp_challenge(std::uint32_t f) {
  wire::UtrpChallengeMsg msg;
  msg.round = 1;
  msg.challenge.frame_size = f;
  util::Rng rng(1);
  for (std::uint32_t i = 0; i < f; ++i) msg.challenge.seeds.push_back(rng());
  return msg;
}

void BM_EncodeUtrpChallenge(benchmark::State& state) {
  const wire::UtrpChallengeMsg msg =
      utrp_challenge(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode(msg));
  }
}

void BM_DecodeUtrpChallenge(benchmark::State& state) {
  const auto frame =
      wire::encode(utrp_challenge(static_cast<std::uint32_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wire::decode_utrp_challenge(wire::open_frame(frame)));
  }
}

service::EnrollRequest enroll_request(std::int64_t tags) {
  service::EnrollRequest req;
  req.inventory = "warehouse";
  util::Rng rng(3);
  req.tags = tag::TagSet::make_random(static_cast<std::size_t>(tags), rng).ids();
  return req;
}

void BM_EncodeEnroll(benchmark::State& state) {
  const service::EnrollRequest req = enroll_request(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::encode(req));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DecodeEnroll(benchmark::State& state) {
  const std::vector<std::byte> payload =
      service::encode(enroll_request(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::decode_enroll(payload));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_FullSessionRound(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(2);
  const tag::TagSet set = tag::TagSet::make_random(n, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 10, .confidence = 0.95});
  for (auto _ : state) {
    sim::EventQueue queue;
    benchmark::DoNotOptimize(
        wire::run_trp_session(queue, server, set.tags(), 1, {}, rng));
  }
}

}  // namespace

BENCHMARK(BM_EncodeBitstringReport)->Arg(1024)->Arg(16384);
BENCHMARK(BM_DecodeBitstringReport)->Arg(1024)->Arg(16384);
BENCHMARK(BM_OpenFrame)->Arg(1024)->Arg(16384);
BENCHMARK(BM_EncodeUtrpChallenge)->Arg(512)->Arg(4096);
BENCHMARK(BM_DecodeUtrpChallenge)->Arg(863);
BENCHMARK(BM_EncodeEnroll)->Arg(2000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecodeEnroll)->Arg(2000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullSessionRound)->Arg(100)->Arg(1000);
