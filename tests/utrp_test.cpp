// Tests for the UnTrusted Reader Protocol (Sec. 5): the re-seeding walk,
// counter semantics, server mirroring, and end-to-end rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "protocol/utrp.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using rfid::protocol::MonitoringPolicy;
using rfid::protocol::UtrpChallenge;
using rfid::protocol::UtrpReader;
using rfid::protocol::utrp_scan;
using rfid::protocol::UtrpServer;
using rfid::tag::ColumnarTagSet;
using rfid::tag::TagSet;

MonitoringPolicy policy(std::uint64_t m, double alpha = 0.95) {
  return MonitoringPolicy{.tolerated_missing = m, .confidence = alpha};
}

UtrpChallenge make_challenge(std::uint32_t f, rfid::util::Rng& rng) {
  UtrpChallenge c;
  c.frame_size = f;
  for (std::uint32_t i = 0; i < f; ++i) c.seeds.push_back(rng());
  return c;
}

// ------------------------------------------------------------------ walk --

TEST(UtrpWalk, EveryTagRepliesExactlyOnce) {
  // Unlike TRP, the re-seed mechanism guarantees each tag transmits within
  // the frame (each re-pick lands inside the remaining sub-frame).
  rfid::util::Rng rng(1);
  TagSet set = TagSet::make_random(200, rng);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(400, rng);
  const auto result = utrp_scan(set.tags(), hasher, c);
  EXPECT_EQ(result.replies, 200u);
  for (const auto& t : set.tags()) EXPECT_TRUE(t.silenced());
}

TEST(UtrpWalk, BitstringOnesAreReplySlots) {
  rfid::util::Rng rng(2);
  TagSet set = TagSet::make_random(100, rng);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(300, rng);
  const auto result = utrp_scan(set.tags(), hasher, c);
  // Each 1-slot groups >= 1 replies; the counts must be consistent.
  EXPECT_LE(result.bitstring.count(), result.replies);
  EXPECT_GE(result.bitstring.count(), 1u);
  // Re-seeds: one per 1-slot except possibly a final-slot reply.
  EXPECT_GE(result.reseeds + 1, result.bitstring.count());
  EXPECT_EQ(result.seeds_consumed, result.reseeds + 1);
}

TEST(UtrpWalk, DeterministicGivenSameStartState) {
  rfid::util::Rng rng(3);
  const TagSet proto = TagSet::make_random(150, rng);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(350, rng);
  TagSet a = proto;
  TagSet b = proto;
  const auto ra = utrp_scan(a.tags(), hasher, c);
  const auto rb = utrp_scan(b.tags(), hasher, c);
  EXPECT_EQ(ra.bitstring, rb.bitstring);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).counter(), b.at(i).counter());
  }
}

TEST(UtrpWalk, CountersAdvancePerReceivedSeed) {
  // A tag's counter equals 1 (initial broadcast) plus the number of re-seeds
  // it heard before going silent.
  rfid::util::Rng rng(4);
  TagSet set = TagSet::make_random(50, rng);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(150, rng);
  const auto result = utrp_scan(set.tags(), hasher, c);
  for (const auto& t : set.tags()) {
    EXPECT_GE(t.counter(), 1u);
    EXPECT_LE(t.counter(), result.reseeds + 1);
  }
  // At least one tag went silent before the last re-seed (or frames would
  // never shrink), so counters are not all equal for non-trivial sets.
  bool counters_differ = false;
  for (const auto& t : set.tags()) {
    if (t.counter() != set.at(0).counter()) counters_differ = true;
  }
  EXPECT_TRUE(counters_differ);
}

TEST(UtrpWalk, RerunningChangesBitstringBecauseCountersMoved) {
  // The anti-rewind property at protocol level: scanning twice with the
  // *same* challenge gives different bitstrings, so a reader cannot probe.
  rfid::util::Rng rng(5);
  TagSet set = TagSet::make_random(120, rng);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(300, rng);
  const auto first = utrp_scan(set.tags(), hasher, c);
  set.begin_round();
  const auto second = utrp_scan(set.tags(), hasher, c);
  EXPECT_NE(first.bitstring, second.bitstring);
}

TEST(UtrpWalk, SingleTagSingleSlotFrame) {
  rfid::util::Rng rng(6);
  TagSet set = TagSet::make_random(1, rng);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(1, rng);
  const auto result = utrp_scan(set.tags(), hasher, c);
  EXPECT_EQ(result.bitstring.count(), 1u);
  EXPECT_TRUE(result.bitstring.test(0));
  EXPECT_EQ(result.reseeds, 0u);
}

TEST(UtrpWalk, EmptyTagSpanYieldsAllZeros) {
  rfid::util::Rng rng(7);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(64, rng);
  const auto result = utrp_scan({}, hasher, c);
  EXPECT_EQ(result.bitstring.count(), 0u);
  EXPECT_EQ(result.replies, 0u);
  EXPECT_EQ(result.reseeds, 0u);
}

TEST(UtrpWalk, RejectsMalformedChallenge) {
  rfid::util::Rng rng(8);
  TagSet set = TagSet::make_random(5, rng);
  const rfid::hash::SlotHasher hasher;
  UtrpChallenge empty_seeds;
  empty_seeds.frame_size = 10;
  EXPECT_THROW((void)utrp_scan(set.tags(), hasher, empty_seeds),
               std::invalid_argument);
  UtrpChallenge zero_frame;
  zero_frame.frame_size = 0;
  zero_frame.seeds = {1};
  EXPECT_THROW((void)utrp_scan(set.tags(), hasher, zero_frame),
               std::invalid_argument);
}

TEST(UtrpWalk, LossyChannelSilencesWithoutReseed) {
  // With total loss the reader observes nothing: zero bitstring, zero
  // re-seeds — but every tag replied once (and went silent).
  rfid::util::Rng rng(9);
  TagSet set = TagSet::make_random(40, rng);
  const rfid::hash::SlotHasher hasher;
  const auto c = make_challenge(100, rng);
  const rfid::radio::ChannelModel dead{.reply_loss_prob = 1.0, .capture_prob = 0.0};
  const auto result = utrp_scan(set.tags(), hasher, c, dead, rng);
  EXPECT_EQ(result.bitstring.count(), 0u);
  EXPECT_EQ(result.reseeds, 0u);
  EXPECT_EQ(result.replies, 40u);
  for (const auto& t : set.tags()) EXPECT_TRUE(t.silenced());
}

// ---------------------------------------------------------------- server --

TEST(UtrpServer, PlanSatisfiesEq3) {
  rfid::util::Rng rng(10);
  const TagSet set = TagSet::make_random(500, rng);
  const UtrpServer server(set, policy(10), 20);
  EXPECT_GT(server.plan().predicted_detection, 0.95);
  EXPECT_EQ(server.frame_size(), server.plan().frame_size);
  EXPECT_EQ(server.comm_budget(), 20u);
}

TEST(UtrpServer, InjectedPlanMatchesComputedPlan) {
  rfid::util::Rng rng(100);
  const TagSet set = TagSet::make_random(300, rng);
  const auto plan = rfid::math::optimize_utrp_frame(300, 5, 0.95, 20);
  const UtrpServer solved(set, policy(5), 20);
  const UtrpServer injected(set, policy(5), 20, plan);
  EXPECT_EQ(solved.frame_size(), injected.frame_size());
  EXPECT_DOUBLE_EQ(solved.plan().predicted_detection,
                   injected.plan().predicted_detection);
  // And the injected server verifies an honest scan like the solved one.
  TagSet live = set;
  const UtrpReader reader;
  const auto c = injected.issue_challenge(rng);
  EXPECT_TRUE(injected.verify(c, reader.scan(live.tags(), c).bitstring).intact);
}

TEST(UtrpServer, InjectedPlanValidated) {
  rfid::util::Rng rng(101);
  const TagSet set = TagSet::make_random(10, rng);
  rfid::math::UtrpPlan empty_plan;
  EXPECT_THROW(UtrpServer(set, policy(1), 20, empty_plan),
               std::invalid_argument);
}

TEST(UtrpServer, ChallengeCarriesFSeeds) {
  rfid::util::Rng rng(11);
  const TagSet set = TagSet::make_random(200, rng);
  const UtrpServer server(set, policy(5), 20);
  const auto c = server.issue_challenge(rng);
  EXPECT_EQ(c.frame_size, server.frame_size());
  EXPECT_EQ(c.seeds.size(), c.frame_size);
}

TEST(UtrpServer, HonestRoundVerifiesAndCommits) {
  rfid::util::Rng rng(12);
  TagSet set = TagSet::make_random(300, rng);
  UtrpServer server(set, policy(5), 20);
  const UtrpReader reader;
  for (int round = 0; round < 5; ++round) {
    const auto c = server.issue_challenge(rng);
    const auto scan = reader.scan(set.tags(), c);
    const auto verdict = server.commit_round(c, scan.bitstring);
    EXPECT_TRUE(verdict.intact) << "round " << round;
    EXPECT_FALSE(server.needs_resync());
    set.begin_round();
  }
  // After several rounds the mirror still tracks reality: counters match.
}

TEST(UtrpServer, TheftBeyondToleranceDetectedAtConfidence) {
  constexpr int kTrials = 200;
  int detected = 0;
  for (int t = 0; t < kTrials; ++t) {
    rfid::util::Rng rng(rfid::util::derive_seed(13, static_cast<std::uint64_t>(t)));
    TagSet set = TagSet::make_random(200, rng);
    UtrpServer server(set, policy(5, 0.9), 20);
    const UtrpReader reader;
    (void)set.steal_random(6, rng);
    const auto c = server.issue_challenge(rng);
    const auto verdict = server.verify(c, reader.scan(set.tags(), c).bitstring);
    if (!verdict.intact) ++detected;
  }
  // An honest reader over a non-intact set: mechanically the walk diverges
  // at the first stolen-tag slot, so detection is far above alpha.
  EXPECT_GE(static_cast<double>(detected) / kTrials, 0.9);
}

TEST(UtrpServer, DeadlineMissFailsVerification) {
  rfid::util::Rng rng(14);
  TagSet set = TagSet::make_random(100, rng);
  UtrpServer server(set, policy(5), 20);
  const UtrpReader reader;
  const auto c = server.issue_challenge(rng);
  const auto scan = reader.scan(set.tags(), c);
  const auto verdict = server.verify(c, scan.bitstring, /*deadline_met=*/false);
  EXPECT_FALSE(verdict.intact);
  EXPECT_FALSE(verdict.deadline_met);
  EXPECT_EQ(verdict.mismatched_slots, 0u);  // content was fine; timing failed
}

TEST(UtrpServer, FailedRoundMarksResyncNeeded) {
  rfid::util::Rng rng(15);
  TagSet set = TagSet::make_random(200, rng);
  UtrpServer server(set, policy(2), 20);
  const UtrpReader reader;
  (void)set.steal_random(50, rng);
  const auto c = server.issue_challenge(rng);
  const auto verdict =
      server.commit_round(c, reader.scan(set.tags(), c).bitstring);
  ASSERT_FALSE(verdict.intact);
  EXPECT_TRUE(server.needs_resync());
}

/// Every id, counter and silenced flag of two mirrors.
void expect_same_mirror(const ColumnarTagSet& got, const ColumnarTagSet& want) {
  EXPECT_TRUE(std::ranges::equal(got.ids(), want.ids()));
  EXPECT_TRUE(std::ranges::equal(got.counters(), want.counters()));
  EXPECT_TRUE(std::ranges::equal(got.silenced_words(), want.silenced_words()));
}

/// A server whose mirror has committed one intact round, so its counters
/// and silenced flags are no longer the enrolled ones.
UtrpServer server_after_one_round(TagSet& set, rfid::util::Rng& rng) {
  UtrpServer server(set, policy(2), 20);
  const auto c = server.issue_challenge(rng);
  EXPECT_TRUE(
      server.commit_round(c, UtrpReader{}.scan(set.tags(), c).bitstring).intact);
  set.begin_round();
  return server;
}

TEST(UtrpServer, FailedRoundPutsTheMirrorBack) {
  // The step walks the mirror in place before it can judge the round; a
  // mismatched or late report undoes that walk and flags the divergence.
  for (const bool late : {false, true}) {
    rfid::util::Rng rng(20);
    TagSet set = TagSet::make_random(130, rng);
    UtrpServer server = server_after_one_round(set, rng);
    const ColumnarTagSet before = server.mirror();

    const auto c = server.issue_challenge(rng);
    auto report = UtrpReader{}.scan(set.tags(), c).bitstring;
    if (!late) report.set(0, !report.test(0));
    const auto verdict = server.commit_round(c, report, /*deadline_met=*/!late);
    EXPECT_FALSE(verdict.intact) << "late=" << late;
    EXPECT_EQ(verdict.mismatched_slots, late ? 0u : 1u) << "late=" << late;
    expect_same_mirror(server.mirror(), before);
    EXPECT_TRUE(server.needs_resync()) << "late=" << late;
  }
}

TEST(UtrpServer, RefusedRoundPutsTheMirrorBackAndFlagsNothing) {
  rfid::util::Rng rng(21);
  TagSet set = TagSet::make_random(130, rng);
  UtrpServer server = server_after_one_round(set, rng);
  const ColumnarTagSet before = server.mirror();
  const auto c = server.issue_challenge(rng);

  // A report of the wrong length is refused before any walk.
  EXPECT_THROW(
      (void)server.commit_round(c, rfid::bits::Bitstring(c.frame_size + 5)),
      std::invalid_argument);
  expect_same_mirror(server.mirror(), before);

  // Too few seeds: the walk throws when it needs a third seed, after tags
  // have replied and counters have moved.
  UtrpChallenge short_of_seeds = c;
  short_of_seeds.seeds.resize(2);
  EXPECT_THROW((void)server.commit_round(short_of_seeds,
                                         rfid::bits::Bitstring(c.frame_size)),
               std::logic_error);
  expect_same_mirror(server.mirror(), before);
  EXPECT_FALSE(server.needs_resync());
}

TEST(UtrpServer, ResyncRestoresOperation) {
  rfid::util::Rng rng(16);
  TagSet set = TagSet::make_random(150, rng);
  UtrpServer server(set, policy(2), 20);
  const UtrpReader reader;

  // Desynchronize: scan the tags without telling the server (a rogue reader
  // incremented counters), then fail a round.
  {
    rfid::util::Rng rogue_rng(99);
    const auto rogue = make_challenge(server.frame_size(), rogue_rng);
    (void)utrp_scan(set.tags(), rfid::hash::SlotHasher{}, rogue);
    set.begin_round();
  }
  const auto c1 = server.issue_challenge(rng);
  const auto v1 =
      server.commit_round(c1, reader.scan(set.tags(), c1).bitstring);
  EXPECT_FALSE(v1.intact);  // counters diverged
  EXPECT_TRUE(server.needs_resync());
  set.begin_round();

  // Physical audit re-enrolls the true counter state.
  server.resync(set);
  EXPECT_FALSE(server.needs_resync());
  const auto c2 = server.issue_challenge(rng);
  const auto v2 = server.verify(c2, reader.scan(set.tags(), c2).bitstring);
  EXPECT_TRUE(v2.intact);
}

TEST(UtrpServer, ResyncRequiresMatchingGroup) {
  rfid::util::Rng rng(17);
  const TagSet set = TagSet::make_random(10, rng);
  UtrpServer server(set, policy(1), 20);
  const TagSet other = TagSet::make_random(9, rng);
  EXPECT_THROW(server.resync(other), std::invalid_argument);
}

TEST(UtrpServer, RejectsBadEnrollment) {
  rfid::util::Rng rng(18);
  const TagSet tiny = TagSet::make_random(3, rng);
  EXPECT_THROW(UtrpServer(TagSet{}, policy(0), 20), std::invalid_argument);
  EXPECT_THROW(UtrpServer(tiny, policy(3), 20), std::invalid_argument);
}

TEST(UtrpServer, VerifyRejectsWrongLength) {
  rfid::util::Rng rng(19);
  const TagSet set = TagSet::make_random(50, rng);
  const UtrpServer server(set, policy(2), 20);
  const auto c = server.issue_challenge(rng);
  EXPECT_THROW((void)server.verify(c, rfid::bits::Bitstring(c.frame_size + 5)),
               std::invalid_argument);
}

}  // namespace
