// Property sweep for tag::ColumnarTagSet and the bulk kernels: lossless
// round-trip against tag::TagSet, and agreement between every bulk kernel
// and its scalar reference (Tag::trp_slot / Bitstring::set, and
// Tag::utrp_receive_seed through the UTRP walk) across hash kinds,
// frame sizes (including frame_size = 1), population sizes straddling the
// 64-tag bitmap word boundary, and duplicate-slot collisions. The UTRP walk
// battery lives in tests/utrp_reference_test.cpp, whole-session
// equivalence in tests/columnar_diff_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bitstring/bitstring.h"
#include "hash/slot_hash.h"
#include "per_tag_utrp_walk.h"
#include "protocol/messages.h"
#include "protocol/utrp.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;
using tag::ColumnarTagSet;

const hash::HashKind kAllKinds[] = {hash::HashKind::kFnv1a64,
                                    hash::HashKind::kMurmurFmix64,
                                    hash::HashKind::kSipHash24};

// Sizes straddling the packed-bitmap word boundary plus a bulk-scale one.
const std::size_t kSizes[] = {1, 2, 63, 64, 65, 100, 1000};

/// A population with non-trivial state: random counters, every third tag
/// silenced — exercises every column the round-trip must preserve.
tag::TagSet messy_population(std::size_t n, util::Rng& rng) {
  tag::TagSet set = tag::TagSet::make_random(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    set.at(i) = tag::Tag(set.at(i).id(), rng.below(1000));
    if (i % 3 == 0) set.at(i).silence();
  }
  return set;
}

TEST(ColumnarTagSet, RoundTripPreservesAllState) {
  util::Rng rng(7);
  for (const std::size_t n : kSizes) {
    const tag::TagSet original = messy_population(n, rng);
    const ColumnarTagSet columnar = ColumnarTagSet::from_tag_set(original);
    ASSERT_EQ(columnar.size(), n);
    const tag::TagSet back = columnar.to_tag_set();
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back.at(i).id(), original.at(i).id()) << "n=" << n << " i=" << i;
      EXPECT_EQ(back.at(i).counter(), original.at(i).counter());
      EXPECT_EQ(back.at(i).silenced(), original.at(i).silenced());
      EXPECT_EQ(columnar.slot_words()[i], original.at(i).id().slot_word());
    }
  }
}

TEST(ColumnarTagSet, FromIdsStartsFresh) {
  util::Rng rng(8);
  const tag::TagSet set = tag::TagSet::make_random(65, rng);
  const std::vector<tag::TagId> ids = set.ids();
  const ColumnarTagSet columnar = ColumnarTagSet::from_ids(ids);
  ASSERT_EQ(columnar.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(columnar.id(i), ids[i]);
    EXPECT_EQ(columnar.counter(i), 0u);
    EXPECT_FALSE(columnar.silenced(i));
  }
}

TEST(ColumnarTagSet, SilenceBeginRoundAndCount) {
  util::Rng rng(9);
  const tag::TagSet set = tag::TagSet::make_random(130, rng);
  ColumnarTagSet columnar = ColumnarTagSet::from_tag_set(set);
  const auto silenced_count = [&columnar] {
    std::size_t count = 0;
    for (std::size_t i = 0; i < columnar.size(); ++i) {
      if (columnar.silenced(i)) ++count;
    }
    return count;
  };
  EXPECT_EQ(silenced_count(), 0u);
  columnar.silence(0);
  columnar.silence(63);
  columnar.silence(64);
  columnar.silence(129);
  EXPECT_EQ(silenced_count(), 4u);
  EXPECT_TRUE(columnar.silenced(63));
  EXPECT_TRUE(columnar.silenced(64));
  EXPECT_FALSE(columnar.silenced(1));
  columnar.begin_round();
  EXPECT_EQ(silenced_count(), 0u);
}

TEST(BulkKernels, TrpSlotsMatchScalarEverywhere) {
  util::Rng rng(11);
  const std::uint32_t frames[] = {1, 2, 7, 64, 101, 4096};
  for (const hash::HashKind kind : kAllKinds) {
    const hash::SlotHasher hasher(kind);
    for (const std::size_t n : kSizes) {
      const tag::TagSet set = tag::TagSet::make_random(n, rng);
      const ColumnarTagSet columnar = ColumnarTagSet::from_tag_set(set);
      for (const std::uint32_t f : frames) {
        const std::uint64_t r = rng();
        std::vector<std::uint32_t> slots(n);
        tag::bulk_trp_slots(hasher, columnar.slot_words(), r, f, slots);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(slots[i], set.at(i).trp_slot(hasher, r, f))
              << to_string(kind) << " n=" << n << " f=" << f << " i=" << i;
          ASSERT_LT(slots[i], f);
        }
      }
    }
  }
}

// The UTRP re-seed pass runs only inside the walk (tag::UtrpLiveTags), so
// its property is stated on the walk: every reception matches
// Tag::utrp_receive_seed (the frozen per-tag walk of
// tests/per_tag_utrp_walk.h calls it tag by tag), and a tag that has
// replied and keeps silent receives no further seed — the counters advance
// by exactly the walk's slots_hashed in total.
TEST(BulkKernels, UtrpReceiveSeedMatchesScalarAndSkipsSilenced) {
  util::Rng rng(12);
  for (const hash::HashKind kind : kAllKinds) {
    const hash::SlotHasher hasher(kind);
    for (const std::size_t n : kSizes) {
      tag::TagSet scalar = messy_population(n, rng);
      ColumnarTagSet columnar = ColumnarTagSet::from_tag_set(scalar);
      for (const std::uint32_t f : {1u, 33u, 512u}) {
        protocol::UtrpChallenge challenge;
        challenge.frame_size = f;
        for (std::uint32_t i = 0; i < f; ++i) challenge.seeds.push_back(rng());
        std::uint64_t before = 0;
        for (std::size_t i = 0; i < n; ++i) before += columnar.counter(i);

        const protocol::UtrpScanResult want = test::per_tag_utrp_walk(
            scalar.tags(), hasher, challenge, nullptr, nullptr);
        const protocol::UtrpScanResult got =
            protocol::utrp_scan_columnar(columnar, hasher, challenge);
        ASSERT_EQ(got.bitstring, want.bitstring)
            << to_string(kind) << " n=" << n << " f=" << f;
        ASSERT_EQ(got.slots_hashed, want.slots_hashed);
        std::uint64_t after = 0;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(columnar.counter(i), scalar.at(i).counter())
              << to_string(kind) << " n=" << n << " f=" << f << " i=" << i;
          ASSERT_EQ(columnar.silenced(i), scalar.at(i).silenced());
          ASSERT_TRUE(columnar.silenced(i));  // every tag replied once
          after += columnar.counter(i);
        }
        ASSERT_EQ(after - before, got.slots_hashed);
        ASSERT_LE(got.slots_hashed, n * got.seeds_consumed);
      }
    }
  }
}

// A walk in place writes each tag back as it replies, and when the live
// set goes mid-walk — the split attack's second reader once the budget is
// spent — it writes back the counters of the tags still live, so every
// tag keeps each seed it received. A prediction writes nothing.
TEST(BulkKernels, UtrpLiveTagsWriteBackRepliesAndCutShortWalks) {
  util::Rng rng(15);
  for (const hash::HashKind kind : kAllKinds) {
    const hash::SlotHasher hasher(kind);
    for (const std::size_t n : kSizes) {
      const tag::TagSet start = messy_population(n, rng);
      const std::uint64_t r1 = rng();
      const std::uint64_t r2 = rng();

      // Tag by tag: one reception in a 64-slot frame, then the tags at the
      // smallest pick reply and the others receive a second seed.
      tag::TagSet want = start;
      std::vector<std::uint32_t> picks(n);
      for (std::size_t i = 0; i < n; ++i) {
        want.at(i).begin_round();
        picks[i] = want.at(i).utrp_receive_seed(hasher, r1, 64);
      }
      const std::uint32_t low = *std::min_element(picks.begin(), picks.end());
      std::size_t repliers = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (picks[i] == low) {
          want.at(i).silence();
          ++repliers;
        } else {
          (void)want.at(i).utrp_receive_seed(hasher, r2, 32);
        }
      }

      const auto cut_short = [&](auto&& walked) {
        tag::UtrpLiveTags live(hasher, walked);
        ASSERT_EQ(live.receive_seed(r1, 64), low);
        ASSERT_EQ(live.reply(low), repliers);
        (void)live.receive_seed(r2, 32);
      };
      tag::TagSet per_tag = start;
      cut_short(per_tag.tags());
      ColumnarTagSet columns = ColumnarTagSet::from_tag_set(start);
      cut_short(&columns);
      const ColumnarTagSet predicted = ColumnarTagSet::from_tag_set(start);
      cut_short(predicted);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(per_tag.at(i).counter(), want.at(i).counter())
            << to_string(kind) << " n=" << n << " i=" << i;
        ASSERT_EQ(per_tag.at(i).silenced(), want.at(i).silenced());
        ASSERT_EQ(columns.counter(i), want.at(i).counter());
        ASSERT_EQ(columns.silenced(i), want.at(i).silenced());
        ASSERT_EQ(predicted.counter(i), start.at(i).counter());
        ASSERT_EQ(predicted.silenced(i), start.at(i).silenced());
      }
    }
  }
}

TEST(BulkKernels, TrpFrameEqualsSlotsPlusFill) {
  util::Rng rng(14);
  for (const hash::HashKind kind : kAllKinds) {
    const hash::SlotHasher hasher(kind);
    for (const std::size_t n : kSizes) {
      const tag::TagSet set = tag::TagSet::make_random(n, rng);
      const ColumnarTagSet columnar = ColumnarTagSet::from_tag_set(set);
      for (const std::uint32_t f : {1u, 97u, 8192u}) {
        const std::uint64_t r = rng();
        const bits::Bitstring fused =
            tag::bulk_trp_frame(hasher, columnar.slot_words(), r, f);
        bits::Bitstring reference(f);
        for (std::size_t i = 0; i < n; ++i) {
          reference.set(set.at(i).trp_slot(hasher, r, f));
        }
        ASSERT_EQ(fused, reference) << to_string(kind) << " n=" << n
                                    << " f=" << f;
      }
    }
  }
}

}  // namespace
