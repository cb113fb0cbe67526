// Differential test: the UTRP walk — one loop over the live tags
// (tag::UtrpLiveTags), jumping between reply events, behind utrp_scan over
// per-tag state and utrp_scan_columnar over the server's columnar mirror —
// against a deliberately naive oracle that processes every slot of
// Algs. 6–7 one by one, exactly as the pseudo-code reads, and, on lossy
// channels, against the frozen per-tag walk (tests/per_tag_utrp_walk.h).
// Any divergence in bitstrings, counters, reply counts, slots hashed, seed
// consumption or RNG draws is a bug in one of them — and the oracles are
// simple enough to trust.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "hash/slot_hash.h"
#include "math/frame_optimizer.h"
#include "per_tag_utrp_walk.h"
#include "protocol/messages.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "radio/channel.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using rfid::hash::HashKind;
using rfid::hash::SlotHasher;
using rfid::protocol::UtrpChallenge;
using rfid::protocol::UtrpScanResult;
using rfid::tag::ColumnarTagSet;
using rfid::tag::Tag;
using rfid::tag::TagSet;

/// Literal transcription of Alg. 6 (reader) + Alg. 7 (tag): iterate global
/// slots one at a time; at each slot ask every active tag whether its pick
/// matches; on a reply, silence responders and rebroadcast (f', r_next) to
/// all remaining tags. O(f · n), no shortcuts.
UtrpScanResult oracle_walk(std::span<Tag> tags, const SlotHasher& hasher,
                           const UtrpChallenge& challenge) {
  const std::uint32_t f = challenge.frame_size;
  UtrpScanResult result;
  result.bitstring = rfid::bits::Bitstring(f);

  // Plain arrays: the O(f · n) scan below stays affordable in unoptimized
  // sanitizer builds, where every vector<bool> access is a function call.
  const std::size_t n = tags.size();
  std::vector<std::uint32_t> pick_column(n);
  std::vector<std::uint8_t> active_column(n, 1);
  std::uint32_t* const pick = pick_column.data();
  std::uint8_t* const active = active_column.data();
  for (std::size_t i = 0; i < n; ++i) {
    tags[i].begin_round();
    pick[i] = tags[i].utrp_receive_seed(hasher, challenge.seeds[0], f);
  }
  result.seeds_consumed = 1;
  result.slots_hashed = n;

  std::uint32_t subframe_start = 0;
  for (std::uint32_t global = 0; global < f; ++global) {
    const std::uint32_t local = global - subframe_start;
    bool any_reply = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i] != 0 && pick[i] == local) {
        active[i] = 0;
        tags[i].silence();
        ++result.replies;
        any_reply = true;
      }
    }
    if (!any_reply) continue;
    result.bitstring.set(global);
    if (global + 1 >= f) break;
    // Alg. 6 line 7: broadcast (f', next r) to everything still listening.
    const std::uint64_t seed = challenge.seeds[result.seeds_consumed++];
    ++result.reseeds;
    const std::uint32_t sub_frame = f - (global + 1);
    subframe_start = global + 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i] == 0) continue;
      pick[i] = tags[i].utrp_receive_seed(hasher, seed, sub_frame);
      ++result.slots_hashed;
    }
  }
  return result;
}

UtrpChallenge make_challenge(std::uint32_t f, rfid::util::Rng& rng) {
  UtrpChallenge c;
  c.frame_size = f;
  c.seeds.reserve(f);
  for (std::uint32_t i = 0; i < f; ++i) c.seeds.push_back(rng());
  return c;
}

class UtrpDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {};

TEST_P(UtrpDifferential, OptimizedWalkMatchesNaiveOracle) {
  const auto [n_tags, frame] = GetParam();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    rfid::util::Rng rng(rfid::util::derive_seed(777, n_tags * 131 + frame, seed));
    const TagSet proto = TagSet::make_random(n_tags, rng);
    const SlotHasher hasher;
    const auto challenge = make_challenge(frame, rng);

    TagSet fast_tags = proto;
    TagSet slow_tags = proto;
    const auto fast = rfid::protocol::utrp_scan(fast_tags.tags(), hasher, challenge);
    const auto slow = oracle_walk(slow_tags.tags(), hasher, challenge);

    ASSERT_EQ(fast.bitstring, slow.bitstring)
        << "n=" << n_tags << " f=" << frame << " seed=" << seed;
    EXPECT_EQ(fast.replies, slow.replies);
    EXPECT_EQ(fast.reseeds, slow.reseeds);
    EXPECT_EQ(fast.seeds_consumed, slow.seeds_consumed);
    for (std::size_t i = 0; i < n_tags; ++i) {
      EXPECT_EQ(fast_tags.at(i).counter(), slow_tags.at(i).counter())
          << "tag " << i;
      EXPECT_EQ(fast_tags.at(i).silenced(), slow_tags.at(i).silenced());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UtrpDifferential,
    ::testing::Values(std::make_tuple(std::size_t{1}, 1u),
                      std::make_tuple(std::size_t{1}, 16u),
                      std::make_tuple(std::size_t{5}, 5u),
                      std::make_tuple(std::size_t{10}, 40u),
                      std::make_tuple(std::size_t{50}, 60u),
                      std::make_tuple(std::size_t{100}, 120u),
                      std::make_tuple(std::size_t{100}, 500u),
                      std::make_tuple(std::size_t{300}, 350u),
                      std::make_tuple(std::size_t{64}, 64u)));

TEST(UtrpDifferential, TightFrameManyTags) {
  // More tags than slots: collisions everywhere, every slot occupied, the
  // re-seed machinery under maximum stress.
  rfid::util::Rng rng(999);
  const TagSet proto = TagSet::make_random(200, rng);
  const SlotHasher hasher;
  const auto challenge = make_challenge(50, rng);
  TagSet fast_tags = proto;
  TagSet slow_tags = proto;
  const auto fast = rfid::protocol::utrp_scan(fast_tags.tags(), hasher, challenge);
  const auto slow = oracle_walk(slow_tags.tags(), hasher, challenge);
  EXPECT_EQ(fast.bitstring, slow.bitstring);
  EXPECT_EQ(fast.replies, slow.replies);
  EXPECT_EQ(fast.replies, 200u);  // everyone fits: picks stay inside subframes
}

// ------------------------------------------------- columnar walk ----
//
// utrp_scan_columnar and the reader's utrp_scan against oracle_walk, every
// hash kind (SipHash runs the scalar re-seed pass on every host; murmur and
// FNV run the AVX-512 pass where the CPU has it), sizes straddling the
// 8-lane and 16-lane vector tails, frames from 1 slot to 4n, counters that
// wrap past 2^64 mid-walk, and tags silenced before the walk (a new round
// clears them). The server's two walks — the prediction without write-back
// and the commit with it — are checked on the same inputs, and the
// reader's walk on four channels against the frozen per-tag walk.

const HashKind kAllKinds[] = {HashKind::kFnv1a64, HashKind::kMurmurFmix64,
                              HashKind::kSipHash24};

/// n random tags: every even tag's counter is within 100 of 2^64, every
/// odd tag's below 1000, and every third tag starts silenced.
TagSet battery_population(std::size_t n, rfid::util::Rng& rng) {
  TagSet set = TagSet::make_random(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t counter =
        i % 2 == 0 ? std::numeric_limits<std::uint64_t>::max() - rng.below(100)
                   : rng.below(1000);
    set.at(i) = Tag(set.at(i).id(), counter);
    if (i % 3 == 0) set.at(i).silence();
  }
  return set;
}

/// Frames from 1 slot to 4n: all tags colliding, about two tags per slot,
/// one slot per tag, and four.
std::vector<std::uint32_t> battery_frames(std::size_t n) {
  const auto n32 = static_cast<std::uint32_t>(n);
  std::set<std::uint32_t> frames;
  for (const std::uint32_t f : {1u, 2u, 3u, n32 / 2, n32, 4 * n32}) {
    if (f >= 1) frames.insert(f);
  }
  return {frames.begin(), frames.end()};
}

/// The reader's channels: ideal, light and heavy loss (the latter with
/// capture), and dead. A lost reply silences its tags without a re-seed, so
/// the walk moves on to the next smallest pick of the same sub-frame.
struct NamedChannel {
  const char* name;
  rfid::radio::ChannelModel model;
};
const NamedChannel kChannels[] = {
    {"ideal channel", {}},
    {"10% loss", {.reply_loss_prob = 0.1}},
    {"50% loss, 30% capture", {.reply_loss_prob = 0.5, .capture_prob = 0.3}},
    {"dead channel", {.reply_loss_prob = 1.0}},
};

void expect_same_walk(const UtrpScanResult& got, const UtrpScanResult& want,
                      const char* what) {
  EXPECT_EQ(got.bitstring, want.bitstring) << what;
  EXPECT_EQ(got.reseeds, want.reseeds) << what;
  EXPECT_EQ(got.seeds_consumed, want.seeds_consumed) << what;
  EXPECT_EQ(got.replies, want.replies) << what;
  EXPECT_EQ(got.slots_hashed, want.slots_hashed) << what;
}

/// Every tag's counter and silenced flag in `got` equals `want`'s.
void expect_same_tags(const ColumnarTagSet& got, const TagSet& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.counter(i), want.at(i).counter()) << what << ", tag " << i;
    ASSERT_EQ(got.silenced(i), want.at(i).silenced()) << what << ", tag " << i;
  }
}

class UtrpWalkBattery
    : public ::testing::TestWithParam<std::tuple<HashKind, std::size_t>> {};

TEST_P(UtrpWalkBattery, ColumnarWalkMatchesPerTagWalkAndOracle) {
  const auto [kind, n] = GetParam();
  const SlotHasher hasher(kind);
  for (const std::uint32_t f : battery_frames(n)) {
    SCOPED_TRACE(::testing::Message() << rfid::hash::to_string(kind)
                                      << " n=" << n << " f=" << f);
    rfid::util::Rng rng(rfid::util::derive_seed(
        4242, n * 8191 + f, static_cast<std::uint64_t>(kind)));
    const TagSet proto = battery_population(n, rng);
    const auto challenge = make_challenge(f, rng);

    TagSet oracle_tags = proto;
    TagSet per_tag = proto;
    ColumnarTagSet columnar = ColumnarTagSet::from_tag_set(proto);
    const auto oracle = oracle_walk(oracle_tags.tags(), hasher, challenge);
    const auto scan =
        rfid::protocol::utrp_scan(per_tag.tags(), hasher, challenge);
    const auto walked =
        rfid::protocol::utrp_scan_columnar(columnar, hasher, challenge);

    expect_same_walk(walked, oracle, "columnar vs oracle");
    expect_same_walk(scan, oracle, "per-tag vs oracle");
    expect_same_tags(columnar, oracle_tags, "columnar vs oracle");
    expect_same_tags(ColumnarTagSet::from_tag_set(per_tag), oracle_tags,
                     "per-tag vs oracle");

    // The reader's walk on each channel against the frozen per-tag walk,
    // run with a copy of the RNG: same results, same tags, same draws.
    for (const NamedChannel& channel : kChannels) {
      TagSet frozen_tags = proto;
      TagSet reader_tags = proto;
      rfid::util::Rng frozen_rng(rfid::util::derive_seed(99, n, f));
      rfid::util::Rng reader_rng = frozen_rng;
      const auto want = rfid::test::per_tag_utrp_walk(
          frozen_tags.tags(), hasher, challenge, &channel.model, &frozen_rng);
      const auto got = rfid::protocol::utrp_scan(
          reader_tags.tags(), hasher, challenge, channel.model, reader_rng);
      expect_same_walk(got, want, channel.name);
      expect_same_tags(ColumnarTagSet::from_tag_set(reader_tags), frozen_tags,
                       channel.name);
      EXPECT_EQ(reader_rng(), frozen_rng()) << channel.name;
    }
    if (n == 0) continue;  // a server monitors a non-empty group

    // The server runs the same walk without its write-back to predict the
    // bitstring, and with it to judge and commit an intact round.
    rfid::protocol::UtrpServer server(
        proto, rfid::protocol::MonitoringPolicy{}, 100,
        rfid::math::UtrpPlan{.frame_size = f}, hasher);
    EXPECT_EQ(server.expected_bitstring(challenge), oracle.bitstring);
    expect_same_tags(server.mirror(), proto, "mirror after the prediction");
    EXPECT_TRUE(server.commit_round(challenge, oracle.bitstring).intact);
    expect_same_tags(server.mirror(), oracle_tags, "mirror after the commit");
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, UtrpWalkBattery,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{7}, std::size_t{8},
                                         std::size_t{9}, std::size_t{15},
                                         std::size_t{16}, std::size_t{17},
                                         std::size_t{63}, std::size_t{64},
                                         std::size_t{65}, std::size_t{250},
                                         std::size_t{2000})),
    [](const ::testing::TestParamInfo<UtrpWalkBattery::ParamType>& point) {
      std::string name;
      switch (std::get<0>(point.param)) {
        case HashKind::kFnv1a64: name = "Fnv"; break;
        case HashKind::kMurmurFmix64: name = "Murmur"; break;
        case HashKind::kSipHash24: name = "SipHash"; break;
      }
      return name + "_n" + std::to_string(std::get<1>(point.param));
    });

}  // namespace
