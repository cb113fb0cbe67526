// Tests for the fault-injection subsystem and the session layer's recovery
// machinery: Gilbert–Elliott burst loss, payload corruption against the
// framing checksum, duplication/reordering idempotency, scripted reader
// crashes resuming via the idempotent challenge cache, clock skew on the
// UTRP deadline, exponential backoff, and FailureReason attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "fault/fault.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "tag/tag_set.h"
#include "util/codec.h"
#include "util/random.h"
#include "wire/frame.h"
#include "wire/session.h"

namespace {

using namespace rfid;

// -------------------------------------------------------- Gilbert–Elliott --

TEST(GilbertElliott, StationaryLossMatchesLongRunRate) {
  // pi_bad = 0.05 / (0.05 + 0.2) = 0.2; loss_bad = 1 -> 20% average loss.
  const fault::GilbertElliottConfig config{
      .p_enter_bad = 0.05, .p_exit_bad = 0.2, .loss_good = 0.0, .loss_bad = 1.0};
  EXPECT_NEAR(config.stationary_loss(), 0.2, 1e-12);

  fault::GilbertElliott chain(config);
  util::Rng rng(21);
  int drops = 0;
  constexpr int kFrames = 200000;
  for (int i = 0; i < kFrames; ++i) {
    if (chain.drop(rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kFrames, 0.2, 0.01);
}

TEST(GilbertElliott, LossIsBurstyNotIid) {
  // Mean sojourn in the bad state is 1/p_exit = 5 frames, so drops arrive in
  // runs ~5 long — i.i.d. loss at the same 20% rate has mean run 1/(1-p)
  // ≈ 1.25. The mean observed run length separates the two cleanly.
  fault::GilbertElliott chain({.p_enter_bad = 0.05,
                               .p_exit_bad = 0.2,
                               .loss_good = 0.0,
                               .loss_bad = 1.0});
  util::Rng rng(22);
  int runs = 0;
  int dropped = 0;
  bool in_run = false;
  for (int i = 0; i < 100000; ++i) {
    if (chain.drop(rng)) {
      ++dropped;
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  ASSERT_GT(runs, 0);
  const double mean_run = static_cast<double>(dropped) / runs;
  EXPECT_GT(mean_run, 3.0);
  EXPECT_LT(mean_run, 7.0);
}

TEST(GilbertElliott, DisabledConfigNeverDrops) {
  const fault::GilbertElliottConfig config{};  // all defaults: off
  EXPECT_FALSE(config.enabled());
  EXPECT_DOUBLE_EQ(config.stationary_loss(), 0.0);
}

// ------------------------------------------------------- FaultPlan parser --

TEST(FaultPlanParser, ParsesEveryDirective) {
  const auto plan = fault::parse_fault_plan(
      "# adverse backhaul scenario\n"
      "seed 42\n"
      "burst 0.05 0.2 1.0 0.01\n"
      "corrupt 0.05   # one flipped bit per hit\n"
      "duplicate 0.1\n"
      "reorder 0.2 8000\n"
      "skew 1.5 250\n"
      "crash 100000 200000\n"
      "crash 900000 never\n");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.burst.p_enter_bad, 0.05);
  EXPECT_DOUBLE_EQ(plan.burst.p_exit_bad, 0.2);
  EXPECT_DOUBLE_EQ(plan.burst.loss_bad, 1.0);
  EXPECT_DOUBLE_EQ(plan.burst.loss_good, 0.01);
  EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.duplicate_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.reorder_prob, 0.2);
  EXPECT_DOUBLE_EQ(plan.reorder_delay_us, 8000.0);
  EXPECT_DOUBLE_EQ(plan.clock_skew, 1.5);
  EXPECT_DOUBLE_EQ(plan.clock_offset_us, 250.0);
  EXPECT_TRUE(plan.skews_clock());
  ASSERT_EQ(plan.reader_crashes.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.reader_crashes[0].start_us, 100000.0);
  EXPECT_DOUBLE_EQ(plan.reader_crashes[0].end_us, 200000.0);
  EXPECT_TRUE(std::isinf(plan.reader_crashes[1].end_us));
}

TEST(FaultPlanParser, EmptyTextIsANoopPlan) {
  const auto plan = fault::parse_fault_plan("\n# only a comment\n\n");
  EXPECT_FALSE(plan.burst.enabled());
  EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.0);
  EXPECT_FALSE(plan.skews_clock());
  EXPECT_TRUE(plan.reader_crashes.empty());
}

TEST(FaultPlanParser, RejectsMalformedInput) {
  EXPECT_THROW((void)fault::parse_fault_plan("warp 0.5\n"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("corrupt 1.5\n"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("corrupt -0.1\n"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("corrupt\n"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("burst 0.1\n"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("crash 1000\n"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("crash 1000 sometimes\n"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("skew 0\n"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_plan("seed 1 extra\n"), std::invalid_argument);
}

// ------------------------------------------------- multi-reader fault plans --

TEST(MultiReaderFaultPlanParser, ReaderLinesLayerOverSharedLines) {
  const auto plan = fault::parse_multi_reader_fault_plan(
      "seed 7\n"
      "burst 0.05 0.2 1.0 0.01   # every reader's backhaul fades\n"
      "reader=1: corrupt 0.2\n"
      "reader=1: duplicate 0.1   # repeated lines accumulate\n"
      "reader=2: crash 5000 never\n");
  EXPECT_FALSE(plan.correlated);

  // Reader 0 runs the shared plan with the scripted seed verbatim, so a
  // k = 1 zone is bit-identical to the legacy single-reader path.
  const fault::FaultPlan r0 = plan.for_reader(0);
  EXPECT_EQ(r0.seed, 7u);
  EXPECT_TRUE(r0.burst.enabled());
  EXPECT_DOUBLE_EQ(r0.corrupt_prob, 0.0);

  // Reader 1's overrides layer over the shared lines (burst retained).
  const fault::FaultPlan r1 = plan.for_reader(1);
  EXPECT_TRUE(r1.burst.enabled());
  EXPECT_DOUBLE_EQ(r1.corrupt_prob, 0.2);
  EXPECT_DOUBLE_EQ(r1.duplicate_prob, 0.1);
  EXPECT_TRUE(r1.reader_crashes.empty());

  const fault::FaultPlan r2 = plan.for_reader(2);
  ASSERT_EQ(r2.reader_crashes.size(), 1u);
  EXPECT_TRUE(std::isinf(r2.reader_crashes[0].end_us));

  // Readers above 0 fork their own fault stream: k radios on one backhaul
  // fade independently by default.
  EXPECT_NE(r1.seed, r0.seed);
  EXPECT_NE(plan.for_reader(3).seed, r0.seed);
  EXPECT_NE(plan.for_reader(3).seed, r1.seed);
}

TEST(MultiReaderFaultPlanParser, CorrelatedPinsEveryReaderToOneStream) {
  const auto plan = fault::parse_multi_reader_fault_plan(
      "correlated\n"
      "seed 9\n"
      "burst 0.05 0.2 1.0 0.0\n");
  EXPECT_TRUE(plan.correlated);
  EXPECT_EQ(plan.for_reader(0).seed, 9u);
  EXPECT_EQ(plan.for_reader(1).seed, 9u);  // same burst realization
  EXPECT_EQ(plan.for_reader(5).seed, 9u);
}

TEST(MultiReaderFaultPlanParser, PlainPlanConvertsToSameScriptForAllReaders) {
  const fault::MultiReaderFaultPlan plan =
      fault::parse_fault_plan("corrupt 0.1\n");  // implicit conversion
  EXPECT_DOUBLE_EQ(plan.for_reader(0).corrupt_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.for_reader(2).corrupt_prob, 0.1);
}

// Regression: a malformed reader prefix must be a parse error, not a
// silently-shared directive named "reader=..." (the failure mode before the
// prefix was validated).
TEST(MultiReaderFaultPlanParser, RejectsMalformedReaderPrefixes) {
  EXPECT_THROW((void)fault::parse_multi_reader_fault_plan("reader=: corrupt 0.1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::parse_multi_reader_fault_plan("reader=x: corrupt 0.1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::parse_multi_reader_fault_plan("reader=1corrupt 0.1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::parse_multi_reader_fault_plan("reader=1\n"),
               std::invalid_argument);
  // Single-reader parse errors inside a reader line still propagate.
  EXPECT_THROW((void)fault::parse_multi_reader_fault_plan("reader=0: warp 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::parse_multi_reader_fault_plan("reader=0: corrupt 1.5\n"),
               std::invalid_argument);
  // `correlated` takes no arguments.
  EXPECT_THROW((void)fault::parse_multi_reader_fault_plan("correlated 1\n"),
               std::invalid_argument);
}

// --------------------------------------------------------- frame corruption --

TEST(FaultInjector, CorruptFlipsExactlyOneBit) {
  fault::FaultPlan plan;
  fault::FaultInjector injector(plan);
  util::Encoder enc;
  enc.put_u64(0xdeadbeefcafef00dULL);
  auto frame = wire::encode_frame(1, enc.bytes());
  const auto original = frame;
  injector.corrupt(frame);
  int flipped = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto diff = std::to_integer<unsigned>(frame[i] ^ original[i]);
    while (diff != 0) {
      flipped += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped, 1);
}

TEST(FaultInjector, CorruptedFrameRejectedByChecksum) {
  fault::FaultPlan plan;
  fault::FaultInjector injector(plan);
  util::Encoder enc;
  enc.put_string("monitor me");
  // Every single-bit flip anywhere in the frame must be caught.
  for (int trial = 0; trial < 64; ++trial) {
    auto frame = wire::encode_frame(1, enc.bytes());
    injector.corrupt(frame);
    EXPECT_THROW((void)wire::open_frame(frame), std::invalid_argument);
  }
}

// ------------------------------------------------ sessions under burst loss --

TEST(FaultSession, TrpCompletesUnder20PercentBurstLoss) {
  sim::EventQueue queue;
  util::Rng rng(31);
  const tag::TagSet set = tag::TagSet::make_random(200, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  fault::FaultPlan plan;
  plan.burst = {.p_enter_bad = 0.05, .p_exit_bad = 0.2, .loss_good = 0.0,
                .loss_bad = 1.0};  // 20% stationary loss in bursts of ~5
  wire::SessionConfig config;
  config.max_retries = 30;
  config.faults = &plan;
  // 12 rounds ≈ 50+ offered frames: enough for the chain to visit the bad
  // state (deterministic under the fixed seeds).
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 12, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.failure, wire::FailureReason::kNone);
  ASSERT_EQ(outcome.verdicts.size(), 12u);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
  EXPECT_GT(outcome.burst_frames_dropped, 0u);
  EXPECT_GT(outcome.retransmissions, 0u);
}

TEST(FaultSession, TheftStillDetectedUnderBurstLoss) {
  // Loss must not mask theft: the verdicts under a hostile channel are the
  // same verdicts an ideal channel would produce, just later.
  sim::EventQueue queue;
  util::Rng rng(32);
  tag::TagSet set = tag::TagSet::make_random(250, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  (void)set.steal_random(50, rng);
  fault::FaultPlan plan;
  plan.burst = {.p_enter_bad = 0.05, .p_exit_bad = 0.2, .loss_good = 0.0,
                .loss_bad = 1.0};
  wire::SessionConfig config;
  config.max_retries = 30;
  config.faults = &plan;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 3, config, rng);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.verdicts.size(), 3u);
  for (const auto& verdict : outcome.verdicts) EXPECT_FALSE(verdict.intact);
}

TEST(FaultSession, UtrpCompletesUnderBurstLossAndCommitsCounters) {
  sim::EventQueue queue;
  util::Rng rng(33);
  tag::TagSet set = tag::TagSet::make_random(150, rng);
  protocol::UtrpServer server(set,
                              {.tolerated_missing = 3, .confidence = 0.95}, 20);
  fault::FaultPlan plan;
  plan.burst = {.p_enter_bad = 0.05, .p_exit_bad = 0.2, .loss_good = 0.0,
                .loss_bad = 1.0};
  wire::SessionConfig config;
  config.max_retries = 30;
  config.faults = &plan;
  const auto outcome =
      wire::run_utrp_session(queue, server, set.tags(), 3, config, rng);
  EXPECT_TRUE(outcome.completed);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
  EXPECT_FALSE(server.needs_resync());
}

// -------------------------------------------- corruption, dup, reordering --

TEST(FaultSession, SurvivesPayloadCorruption) {
  sim::EventQueue queue;
  util::Rng rng(34);
  const tag::TagSet set = tag::TagSet::make_random(150, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  fault::FaultPlan plan;
  plan.corrupt_prob = 0.05;
  wire::SessionConfig config;
  config.max_retries = 30;
  config.faults = &plan;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 10, config, rng);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.verdicts.size(), 10u);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
}

TEST(FaultSession, DuplicatesAndReorderingCannotDoubleCountRounds) {
  // Heavy duplication and reordering: idempotent round caches must yield
  // exactly one verdict per round regardless of how many copies arrive or in
  // what order.
  sim::EventQueue queue;
  util::Rng rng(35);
  const tag::TagSet set = tag::TagSet::make_random(150, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  fault::FaultPlan plan;
  plan.duplicate_prob = 0.4;
  plan.reorder_prob = 0.3;
  plan.reorder_delay_us = 10000.0;
  wire::SessionConfig config;
  config.max_retries = 30;
  config.faults = &plan;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 6, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.rounds_completed, 6u);
  ASSERT_EQ(outcome.verdicts.size(), 6u);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
  EXPECT_GT(outcome.frames_duplicated, 0u);
  EXPECT_GT(outcome.frames_reordered, 0u);
}

// ------------------------------------------------------- crash and restart --

TEST(FaultSession, ReaderCrashRestartResumesViaChallengeCache) {
  // The acceptance scenario: 20% burst loss, 5% corruption, duplicates,
  // reordering, and one scripted crash/restart — the TRP session still
  // finishes every round with correct verdicts. The plan goes through the
  // text format to exercise it end to end.
  sim::EventQueue queue;
  util::Rng rng(36);
  const tag::TagSet set = tag::TagSet::make_random(200, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  const fault::FaultPlan plan = fault::parse_fault_plan(
      "seed 99\n"
      "burst 0.05 0.2\n"        // 20% stationary burst loss
      "corrupt 0.05\n"
      "duplicate 0.2\n"
      "reorder 0.2 5000\n"
      "crash 50000 90000\n");   // mid-round-1 outage, 40 ms
  wire::SessionConfig config;
  config.max_retries = 40;
  config.faults = &plan;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 4, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.failure, wire::FailureReason::kNone);
  EXPECT_EQ(outcome.rounds_completed, 4u);
  ASSERT_EQ(outcome.verdicts.size(), 4u);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
  EXPECT_EQ(outcome.reader_crashes, 1u);
  EXPECT_GT(outcome.burst_frames_dropped, 0u);
}

TEST(FaultSession, ObservabilityCountersMatchOutcomeUnderFaults) {
  // The acceptance scenario again, with a MetricsRegistry attached: every
  // fault the injector delivered and every retransmission the endpoints
  // performed must be visible in the counters, agreeing exactly with the
  // outcome's own accounting.
  sim::EventQueue queue;
  util::Rng rng(36);
  const tag::TagSet set = tag::TagSet::make_random(200, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  const fault::FaultPlan plan = fault::parse_fault_plan(
      "seed 99\n"
      "burst 0.05 0.2\n"
      "corrupt 0.05\n"
      "duplicate 0.2\n"
      "reorder 0.2 5000\n"
      "crash 50000 90000\n");
  obs::MetricsRegistry reg;
  wire::SessionConfig config;
  config.max_retries = 40;
  config.faults = &plan;
  config.metrics = &reg;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 4, config, rng);
  ASSERT_TRUE(outcome.completed);

  namespace cat = obs::catalog;
  EXPECT_EQ(cat::faults_injected_total(reg, "burst_drop").value(),
            outcome.burst_frames_dropped);
  EXPECT_EQ(cat::faults_injected_total(reg, "duplicate").value(),
            outcome.frames_duplicated);
  EXPECT_EQ(cat::faults_injected_total(reg, "reorder").value(),
            outcome.frames_reordered);
  EXPECT_EQ(cat::faults_injected_total(reg, "reader_crash").value(),
            outcome.reader_crashes);
  EXPECT_EQ(cat::corrupt_frames_rejected_total(reg).value(),
            outcome.corrupt_frames_dropped);
  EXPECT_EQ(cat::retransmissions_total(reg).value(), outcome.retransmissions);
  EXPECT_EQ(cat::sessions_total(reg, "trp", "completed").value(), 1u);
  EXPECT_EQ(cat::frames_sent_total(reg, "uplink").value() +
                cat::frames_sent_total(reg, "downlink").value(),
            outcome.frames_sent);
  // The scenario is deterministic, so the faults really fired.
  EXPECT_GT(outcome.burst_frames_dropped, 0u);
  EXPECT_EQ(outcome.reader_crashes, 1u);
}

TEST(FaultSession, CrashWithoutRestartReportsCrashed) {
  sim::EventQueue queue;
  util::Rng rng(37);
  const tag::TagSet set = tag::TagSet::make_random(100, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 3, .confidence = 0.95});
  const fault::FaultPlan plan = fault::parse_fault_plan("crash 10000 never\n");
  wire::SessionConfig config;
  config.faults = &plan;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 3, config, rng);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.failure, wire::FailureReason::kCrashed);
  EXPECT_EQ(outcome.reader_crashes, 1u);
  ASSERT_FALSE(outcome.round_failures.empty());
  EXPECT_EQ(outcome.round_failures.back().reason, wire::FailureReason::kCrashed);
  EXPECT_EQ(wire::to_string(outcome.failure), "crashed");
}

// --------------------------------------------------- failure attribution --

TEST(FaultSession, DeadLinkReportsTimeoutExhausted) {
  sim::EventQueue queue;
  util::Rng rng(38);
  const tag::TagSet set = tag::TagSet::make_random(50, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 2, .confidence = 0.95});
  wire::SessionConfig config;
  config.uplink = {.latency_us = 1000.0, .jitter_us = 0.0, .drop_prob = 1.0};
  config.max_retries = 3;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.failure, wire::FailureReason::kTimeoutExhausted);
  ASSERT_EQ(outcome.round_failures.size(), 1u);
  EXPECT_EQ(outcome.round_failures[0].round, 0u);
  EXPECT_EQ(outcome.round_failures[0].reason,
            wire::FailureReason::kTimeoutExhausted);
}

TEST(FaultSession, TotalCorruptionReportsCorruptGiveup) {
  // Every frame corrupted: the endpoints never crash — the checksum rejects
  // each copy and the session eventually gives up, naming corruption (not a
  // bare timeout) as the cause.
  sim::EventQueue queue;
  util::Rng rng(39);
  const tag::TagSet set = tag::TagSet::make_random(50, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 2, .confidence = 0.95});
  fault::FaultPlan plan;
  plan.corrupt_prob = 1.0;
  wire::SessionConfig config;
  config.max_retries = 4;
  config.faults = &plan;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.failure, wire::FailureReason::kCorruptGiveup);
  EXPECT_GT(outcome.corrupt_frames_dropped, 0u);
  EXPECT_EQ(outcome.rounds_completed, 0u);
}

TEST(FaultSession, ClockSkewTripsUtrpDeadline) {
  // A server clock running 30x fast measures ~51 ms of honest round trip as
  // ~1.5 s and fails the Alg. 5 timer; the identical run without skew
  // passes. The round still completes — the failure is recorded per round.
  tag::TagSet set_control;
  {
    sim::EventQueue queue;
    util::Rng rng(40);
    tag::TagSet set = tag::TagSet::make_random(100, rng);
    protocol::UtrpServer server(
        set, {.tolerated_missing = 3, .confidence = 0.95}, 20);
    wire::SessionConfig config;
    config.utrp_deadline_us = 1e6;
    const auto outcome =
        wire::run_utrp_session(queue, server, set.tags(), 1, config, rng);
    EXPECT_TRUE(outcome.completed);
    ASSERT_EQ(outcome.verdicts.size(), 1u);
    EXPECT_TRUE(outcome.verdicts[0].deadline_met);
    EXPECT_TRUE(outcome.round_failures.empty());
  }
  {
    sim::EventQueue queue;
    util::Rng rng(40);
    tag::TagSet set = tag::TagSet::make_random(100, rng);
    protocol::UtrpServer server(
        set, {.tolerated_missing = 3, .confidence = 0.95}, 20);
    const fault::FaultPlan plan = fault::parse_fault_plan("skew 30\n");
    wire::SessionConfig config;
    config.utrp_deadline_us = 1e6;
    config.faults = &plan;
    const auto outcome =
        wire::run_utrp_session(queue, server, set.tags(), 1, config, rng);
    EXPECT_TRUE(outcome.completed);  // the round finishes, just not on time
    ASSERT_EQ(outcome.verdicts.size(), 1u);
    EXPECT_FALSE(outcome.verdicts[0].deadline_met);
    EXPECT_FALSE(outcome.verdicts[0].intact);
    ASSERT_EQ(outcome.round_failures.size(), 1u);
    EXPECT_EQ(outcome.round_failures[0].reason,
              wire::FailureReason::kDeadlineMissed);
  }
}

// ------------------------------------------------------------- backoff --

TEST(Backoff, ExponentialScheduleIsDeterministic) {
  // Dead link, base 1000 us, x2 growth, no jitter, 3 retries:
  // timeouts at 1000, +2000, +4000, +8000 -> gives up at t = 15000.
  sim::EventQueue queue;
  util::Rng rng(41);
  const tag::TagSet set = tag::TagSet::make_random(20, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 1, .confidence = 0.9});
  wire::SessionConfig config;
  config.uplink = {.latency_us = 100.0, .jitter_us = 0.0, .drop_prob = 1.0};
  config.retry_timeout_us = 1000.0;
  config.backoff_multiplier = 2.0;
  config.backoff_jitter = 0.0;
  config.max_retries = 3;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.retransmissions, 3u);
  EXPECT_DOUBLE_EQ(outcome.finished_at_us, 15000.0);
}

TEST(Backoff, CapBoundsTheSchedule) {
  // Same run with a 1500 us cap: 1000, +1500, +1500, +1500 -> t = 5500.
  sim::EventQueue queue;
  util::Rng rng(42);
  const tag::TagSet set = tag::TagSet::make_random(20, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 1, .confidence = 0.9});
  wire::SessionConfig config;
  config.uplink = {.latency_us = 100.0, .jitter_us = 0.0, .drop_prob = 1.0};
  config.retry_timeout_us = 1000.0;
  config.backoff_multiplier = 2.0;
  config.backoff_cap_us = 1500.0;
  config.backoff_jitter = 0.0;
  config.max_retries = 3;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_FALSE(outcome.completed);
  EXPECT_DOUBLE_EQ(outcome.finished_at_us, 5500.0);
}

TEST(Backoff, JitterStaysWithinConfiguredFraction) {
  // With 10% jitter each delay lands in [d, 1.1 d): the give-up time is
  // bounded by the no-jitter schedule and its 1.1x stretch.
  sim::EventQueue queue;
  util::Rng rng(43);
  const tag::TagSet set = tag::TagSet::make_random(20, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 1, .confidence = 0.9});
  wire::SessionConfig config;
  config.uplink = {.latency_us = 100.0, .jitter_us = 0.0, .drop_prob = 1.0};
  config.retry_timeout_us = 1000.0;
  config.backoff_multiplier = 2.0;
  config.backoff_jitter = 0.1;
  config.max_retries = 3;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_FALSE(outcome.completed);
  EXPECT_GE(outcome.finished_at_us, 15000.0);
  EXPECT_LT(outcome.finished_at_us, 16500.0);
}

// ------------------------------------- UTRP divergence heals via resync --

TEST(FaultSession, UtrpCrashRestartDivergesThenResyncHeals) {
  // A crash after the scan consumed the challenge but before the report got
  // through forces the restarted reader to re-scan the same round: the tags'
  // counters advance twice where the mirror expects once. The verdict flags
  // the mismatch, needs_resync() trips, and a resync from a physical audit
  // restores clean monitoring — the full self-healing loop.
  sim::EventQueue queue;
  util::Rng rng(44);
  tag::TagSet set = tag::TagSet::make_random(150, rng);
  protocol::UtrpServer server(set,
                              {.tolerated_missing = 3, .confidence = 0.95}, 20);
  const fault::FaultPlan plan = fault::parse_fault_plan("crash 5000 20000\n");
  wire::SessionConfig config;
  config.faults = &plan;
  const auto outcome =
      wire::run_utrp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.reader_crashes, 1u);
  ASSERT_EQ(outcome.verdicts.size(), 1u);
  EXPECT_FALSE(outcome.verdicts[0].intact);  // divergence, not theft
  ASSERT_TRUE(server.needs_resync());

  // Physical audit: re-enroll the tags exactly as they now are.
  server.resync(set);
  EXPECT_FALSE(server.needs_resync());

  // Monitoring is clean again.
  const auto after =
      wire::run_utrp_session(queue, server, set.tags(), 3, {}, rng);
  EXPECT_TRUE(after.completed);
  ASSERT_EQ(after.verdicts.size(), 3u);
  for (const auto& verdict : after.verdicts) EXPECT_TRUE(verdict.intact);
  EXPECT_FALSE(server.needs_resync());
}

TEST(FaultSession, FaultlessPlanMatchesNoPlanBitForBit) {
  // Attaching an all-off FaultPlan must not perturb any random stream: the
  // outcome is identical to running without the fault subsystem at all.
  const auto run = [](const fault::FaultPlan* plan) {
    sim::EventQueue queue;
    util::Rng rng(45);
    const tag::TagSet set = tag::TagSet::make_random(120, rng);
    const protocol::TrpServer server(
        set.ids(), {.tolerated_missing = 3, .confidence = 0.95});
    wire::SessionConfig config;
    config.uplink = {.latency_us = 1000.0, .jitter_us = 300.0, .drop_prob = 0.2};
    config.downlink = {.latency_us = 1000.0, .jitter_us = 300.0, .drop_prob = 0.2};
    config.max_retries = 30;
    config.faults = plan;
    return wire::run_trp_session(queue, server, set.tags(), 4, config, rng);
  };
  const fault::FaultPlan noop;
  const auto with = run(&noop);
  const auto without = run(nullptr);
  EXPECT_EQ(with.frames_sent, without.frames_sent);
  EXPECT_EQ(with.frames_dropped, without.frames_dropped);
  EXPECT_EQ(with.retransmissions, without.retransmissions);
  EXPECT_DOUBLE_EQ(with.finished_at_us, without.finished_at_us);
}

}  // namespace
