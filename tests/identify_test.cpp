// Tests for the missing-tag identification extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>

#include "obs/catalog.h"
#include "protocol/identification.h"
#include "radio/timing.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using rfid::protocol::IdentifyConfig;
using rfid::protocol::IdentifyProtocolKind;
using rfid::protocol::make_identification_protocol;
using rfid::protocol::to_string;
using rfid::tag::TagId;
using rfid::tag::TagSet;

/// One campaign of the iterative family member (the paper-faithful
/// baseline), through the identification seam.
rfid::protocol::IdentifyResult identify_iterative(
    std::span<const TagId> enrolled, std::span<const rfid::tag::Tag> present,
    const rfid::hash::SlotHasher& hasher, const IdentifyConfig& config,
    rfid::util::Rng& rng) {
  return make_identification_protocol(IdentifyProtocolKind::kIterative, config)
      ->identify(enrolled, present, hasher, rng);
}

std::set<std::uint64_t> words_of(const std::vector<TagId>& ids) {
  std::set<std::uint64_t> out;
  for (const TagId& id : ids) out.insert(id.slot_word());
  return out;
}

TEST(Identify, ExactlyIdentifiesTheStolenTags) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    rfid::util::Rng rng(rfid::util::derive_seed(50, seed));
    TagSet set = TagSet::make_random(400, rng);
    const auto enrolled = set.ids();
    const TagSet stolen = set.steal_random(25, rng);
    const auto result = identify_iterative(enrolled, set.tags(),
                                           rfid::hash::SlotHasher{}, {}, rng);
    EXPECT_TRUE(result.unresolved.empty());
    EXPECT_EQ(result.missing.size(), 25u);
    EXPECT_EQ(result.present.size(), 375u);
    EXPECT_EQ(words_of(result.missing), words_of(stolen.ids()));
  }
}

TEST(Identify, NothingMissingMeansEveryoneProvenPresent) {
  rfid::util::Rng rng(1);
  const TagSet set = TagSet::make_random(200, rng);
  const auto result = identify_iterative(set.ids(), set.tags(),
                                         rfid::hash::SlotHasher{}, {}, rng);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_TRUE(result.unresolved.empty());
  EXPECT_EQ(result.present.size(), 200u);
}

TEST(Identify, EverythingMissingResolvedInOneRound) {
  rfid::util::Rng rng(2);
  const TagSet set = TagSet::make_random(100, rng);
  const auto result = identify_iterative(set.ids(), {},
                                         rfid::hash::SlotHasher{}, {}, rng);
  EXPECT_EQ(result.missing.size(), 100u);
  EXPECT_TRUE(result.present.empty());
  EXPECT_EQ(result.rounds, 1u);  // every slot observed empty: all proven
}

TEST(Identify, NoFalseAccusationsEver) {
  // Across many randomized campaigns, a physically present tag must never
  // land in `missing` (the verdicts are proofs on an ideal channel).
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    rfid::util::Rng rng(rfid::util::derive_seed(51, seed));
    TagSet set = TagSet::make_random(150, rng);
    const auto enrolled = set.ids();
    (void)set.steal_random(static_cast<std::size_t>(rng.below(40)), rng);
    const auto result = identify_iterative(enrolled, set.tags(),
                                           rfid::hash::SlotHasher{}, {}, rng);
    const auto present_words = words_of(set.ids());
    for (const TagId& accused : result.missing) {
      EXPECT_FALSE(present_words.contains(accused.slot_word()))
          << "present tag falsely accused (seed " << seed << ")";
    }
  }
}

TEST(Identify, RoundCountIsLogarithmic) {
  rfid::util::Rng rng(3);
  TagSet set = TagSet::make_random(2000, rng);
  const auto enrolled = set.ids();
  (void)set.steal_random(100, rng);
  const auto result = identify_iterative(enrolled, set.tags(),
                                         rfid::hash::SlotHasher{}, {}, rng);
  EXPECT_TRUE(result.unresolved.empty());
  EXPECT_LT(result.rounds, 45u);  // e^{-1}-ish resolution per round
  // Frames stay ~n wide while any tag is unknown: O(n log n) total.
  EXPECT_LT(result.total_slots, 2000u * 50);
}

TEST(Identify, LargerFramesFewerRounds) {
  // Identical population and randomness; only the frame load differs.
  rfid::util::Rng make_rng(4);
  TagSet proto = TagSet::make_random(500, make_rng);
  const auto enrolled = proto.ids();
  (void)proto.steal_random(20, make_rng);

  rfid::util::Rng rng_tight(99);
  rfid::util::Rng rng_roomy(99);
  const auto tight = identify_iterative(
      enrolled, proto.tags(), rfid::hash::SlotHasher{}, {.frame_load = 1.0},
      rng_tight);
  const auto roomy = identify_iterative(
      enrolled, proto.tags(), rfid::hash::SlotHasher{}, {.frame_load = 4.0},
      rng_roomy);
  EXPECT_LE(roomy.rounds, tight.rounds);
  EXPECT_TRUE(roomy.unresolved.empty());
}

TEST(Identify, RoundCapLeavesUnresolvedNotWrong) {
  rfid::util::Rng rng(5);
  TagSet set = TagSet::make_random(300, rng);
  const auto enrolled = set.ids();
  const TagSet stolen = set.steal_random(10, rng);
  const auto result = identify_iterative(
      enrolled, set.tags(), rfid::hash::SlotHasher{},
      {.frame_load = 1.0, .max_rounds = 1}, rng);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_FALSE(result.unresolved.empty());
  // Whatever WAS classified must still be correct.
  const auto stolen_words = words_of(stolen.ids());
  for (const TagId& id : result.missing) {
    EXPECT_TRUE(stolen_words.contains(id.slot_word()));
  }
  const auto present_words = words_of(set.ids());
  for (const TagId& id : result.present) {
    EXPECT_TRUE(present_words.contains(id.slot_word()));
  }
  // Classified + unresolved covers everyone exactly once.
  EXPECT_EQ(result.missing.size() + result.present.size() +
                result.unresolved.size(),
            enrolled.size());
}

TEST(Identify, LossyChannelNeverFalselyAccusesOrClears) {
  // The header's promise, for BOTH family members: reply loss may delay or
  // withhold verdicts (unresolved), but an accused tag is really absent and
  // a cleared tag is really present — the confirmation streak absorbs loss.
  for (const auto kind : {IdentifyProtocolKind::kIterative,
                          IdentifyProtocolKind::kFilterFirst}) {
    const auto protocol = make_identification_protocol(
        kind, {.frame_load = 1.0,
               .max_rounds = 64,
               .channel = {.reply_loss_prob = 0.2, .capture_prob = 0.1}});
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      rfid::util::Rng rng(rfid::util::derive_seed(60, seed));
      TagSet set = TagSet::make_random(300, rng);
      const auto enrolled = set.ids();
      const TagSet stolen = set.steal_random(5, rng);
      const auto result =
          protocol->identify(enrolled, set.tags(), rfid::hash::SlotHasher{}, rng);
      EXPECT_GT(result.confirmations_required, 1u);
      const auto stolen_words = words_of(stolen.ids());
      const auto present_words = words_of(set.ids());
      for (const TagId& accused : result.missing) {
        EXPECT_TRUE(stolen_words.contains(accused.slot_word()))
            << to_string(kind) << " falsely accused a present tag (seed "
            << seed << ")";
      }
      for (const TagId& cleared : result.present) {
        EXPECT_TRUE(present_words.contains(cleared.slot_word()))
            << to_string(kind) << " falsely cleared a stolen tag (seed "
            << seed << ")";
      }
    }
  }
}

TEST(Identify, FilterFirstStaysConclusiveUnderLoss) {
  // The iterative member mostly returns `unresolved` on a lossy link
  // (present tags keep colliding with the suspects); filter-first silences
  // proven-present tags, so the suspects' slots go quiet and the streak
  // completes inside the round cap.
  const auto protocol = make_identification_protocol(
      IdentifyProtocolKind::kFilterFirst,
      {.frame_load = 1.0,
       .max_rounds = 64,
       .channel = {.reply_loss_prob = 0.2, .capture_prob = 0.0}});
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    rfid::util::Rng rng(rfid::util::derive_seed(61, seed));
    TagSet set = TagSet::make_random(300, rng);
    const auto enrolled = set.ids();
    const TagSet stolen = set.steal_random(5, rng);
    const auto result =
        protocol->identify(enrolled, set.tags(), rfid::hash::SlotHasher{}, rng);
    EXPECT_TRUE(result.unresolved.empty()) << "seed " << seed;
    EXPECT_EQ(words_of(result.missing), words_of(stolen.ids()));
    EXPECT_EQ(result.present.size(), 295u);
  }
}

TEST(Identify, FilterFirstExactlyIdentifiesTheStolenTags) {
  const auto protocol =
      make_identification_protocol(IdentifyProtocolKind::kFilterFirst, {});
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    rfid::util::Rng rng(rfid::util::derive_seed(62, seed));
    TagSet set = TagSet::make_random(400, rng);
    const auto enrolled = set.ids();
    const TagSet stolen = set.steal_random(25, rng);
    const auto result =
        protocol->identify(enrolled, set.tags(), rfid::hash::SlotHasher{}, rng);
    EXPECT_TRUE(result.unresolved.empty());
    EXPECT_EQ(words_of(result.missing), words_of(stolen.ids()));
    EXPECT_EQ(result.present.size(), 375u);
  }
}

TEST(Identify, FilterFirstHandlesDegenerateTheftSizes) {
  const auto protocol =
      make_identification_protocol(IdentifyProtocolKind::kFilterFirst, {});
  rfid::util::Rng rng(63);
  const TagSet intact = TagSet::make_random(200, rng);
  const auto all_there =
      protocol->identify(intact.ids(), intact.tags(), rfid::hash::SlotHasher{}, rng);
  EXPECT_TRUE(all_there.missing.empty());
  EXPECT_TRUE(all_there.unresolved.empty());
  EXPECT_EQ(all_there.present.size(), 200u);

  const auto all_gone =
      protocol->identify(intact.ids(), {}, rfid::hash::SlotHasher{}, rng);
  EXPECT_EQ(all_gone.missing.size(), 200u);
  EXPECT_TRUE(all_gone.present.empty());
  EXPECT_EQ(all_gone.rounds, 1u);  // every slot empty: one frame settles it
}

TEST(Identify, FilterFirstBeatsIterativeOnAirTime) {
  // The point of the refactor: silencing proven-present tags shrinks the
  // frames, so filter-first spends a constant factor of the iterative
  // member's slots — and materially less simulated air time.
  rfid::util::Rng make_rng(64);
  TagSet set = TagSet::make_random(5000, make_rng);
  const auto enrolled = set.ids();
  (void)set.steal_random(10, make_rng);

  const rfid::radio::TimingModel timing;
  rfid::util::Rng rng_a(7);
  rfid::util::Rng rng_b(7);
  const auto iterative =
      make_identification_protocol(IdentifyProtocolKind::kIterative, {})
          ->identify(enrolled, set.tags(), rfid::hash::SlotHasher{}, rng_a);
  const auto filtered =
      make_identification_protocol(IdentifyProtocolKind::kFilterFirst, {})
          ->identify(enrolled, set.tags(), rfid::hash::SlotHasher{}, rng_b);
  EXPECT_TRUE(filtered.unresolved.empty());
  EXPECT_EQ(filtered.missing.size(), 10u);
  EXPECT_LT(filtered.total_slots, iterative.total_slots / 2);
  EXPECT_LT(filtered.elapsed_us(timing), iterative.elapsed_us(timing));
}

TEST(Identify, FilterFirstEstimatesTheftSizeFromFirstFrame) {
  const auto protocol =
      make_identification_protocol(IdentifyProtocolKind::kFilterFirst, {});
  rfid::util::Rng rng(65);
  TagSet set = TagSet::make_random(2000, rng);
  const auto enrolled = set.ids();
  (void)set.steal_random(400, rng);
  const auto result =
      protocol->identify(enrolled, set.tags(), rfid::hash::SlotHasher{}, rng);
  // Zero-estimator on the first frame: coarse, but near the true theft.
  EXPECT_GT(result.estimated_missing, 200.0);
  EXPECT_LT(result.estimated_missing, 600.0);
  EXPECT_EQ(result.missing.size(), 400u);
}

TEST(Identify, RequiredConfirmationsScalesWithLoss) {
  using rfid::protocol::required_confirmations;
  EXPECT_EQ(required_confirmations({}, 1000), 1u);
  const IdentifyConfig mild{.channel = {.reply_loss_prob = 0.05}};
  const IdentifyConfig heavy{.channel = {.reply_loss_prob = 0.5}};
  EXPECT_GT(required_confirmations(mild, 1000), 1u);
  EXPECT_GT(required_confirmations(heavy, 1000),
            required_confirmations(mild, 1000));
  const IdentifyConfig pinned{.channel = {.reply_loss_prob = 0.5},
                              .confirmations = 3};
  EXPECT_EQ(required_confirmations(pinned, 1000), 3u);
}

TEST(Identify, FamilyFactoryNamesAndValidation) {
  using rfid::protocol::IdentificationProtocol;
  EXPECT_EQ(to_string(IdentifyProtocolKind::kIterative), "iterative");
  EXPECT_EQ(to_string(IdentifyProtocolKind::kFilterFirst), "filter_first");
  for (const auto kind : {IdentifyProtocolKind::kIterative,
                          IdentifyProtocolKind::kFilterFirst}) {
    const auto protocol = make_identification_protocol(kind, {});
    EXPECT_EQ(protocol->name(), to_string(kind));
    EXPECT_THROW((void)make_identification_protocol(kind, {.frame_load = 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)make_identification_protocol(
            kind, {.channel = {.reply_loss_prob = 1.0}}),
        std::invalid_argument);
    EXPECT_THROW(
        (void)make_identification_protocol(kind, {.accusation_error = 0.0}),
        std::invalid_argument);
  }
}

TEST(Identify, MetricsRecordOneCampaign) {
  rfid::util::Rng rng(66);
  TagSet set = TagSet::make_random(100, rng);
  const auto enrolled = set.ids();
  (void)set.steal_random(4, rng);
  const auto protocol =
      make_identification_protocol(IdentifyProtocolKind::kFilterFirst, {});
  const auto result =
      protocol->identify(enrolled, set.tags(), rfid::hash::SlotHasher{}, rng);

  rfid::obs::MetricsRegistry registry;
  rfid::protocol::record_identify_metrics(registry, protocol->name(), result);
  EXPECT_EQ(rfid::obs::catalog::identify_campaigns_total(registry,
                                                         "filter_first",
                                                         "resolved")
                .value(),
            1u);
  EXPECT_EQ(rfid::obs::catalog::identify_tags_total(registry, "missing").value(),
            4u);
  EXPECT_EQ(rfid::obs::catalog::identify_tags_total(registry, "present").value(),
            96u);
  EXPECT_EQ(
      rfid::obs::catalog::identify_slots_total(registry, "filter_first", "frame")
          .value(),
      result.frame_empty_slots + result.frame_reply_slots);
}

TEST(Identify, RejectsBadConfig) {
  rfid::util::Rng rng(7);
  const TagSet set = TagSet::make_random(5, rng);
  EXPECT_THROW((void)identify_iterative({}, set.tags(),
                                        rfid::hash::SlotHasher{}, {}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)identify_iterative(set.ids(), set.tags(),
                                        rfid::hash::SlotHasher{},
                                        {.frame_load = 0.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(
      (void)identify_iterative(set.ids(), set.tags(), rfid::hash::SlotHasher{},
                               {.frame_load = 1.0, .max_rounds = 0}, rng),
      std::invalid_argument);
  // llround(+inf) is unspecified; it must not silently become a 1-slot frame.
  for (const auto kind : {IdentifyProtocolKind::kIterative,
                          IdentifyProtocolKind::kFilterFirst}) {
    EXPECT_THROW((void)make_identification_protocol(
                     kind, {.frame_load = std::numeric_limits<double>::infinity()}),
                 std::invalid_argument);
  }
}

TEST(Identify, RejectsAFrameBeyondThirtyTwoBitSlots) {
  // 1000 tags at load 10^7 ask for 10^10 slots: refused before the frame is
  // narrowed to 32 bits or allocated, and before any challenge is drawn.
  rfid::util::Rng rng(8);
  const TagSet set = TagSet::make_random(1000, rng);
  for (const auto kind : {IdentifyProtocolKind::kIterative,
                          IdentifyProtocolKind::kFilterFirst}) {
    const auto protocol =
        make_identification_protocol(kind, {.frame_load = 1e7});
    rfid::util::Rng campaign(9);
    rfid::util::Rng untouched(9);
    EXPECT_THROW((void)protocol->identify(set.ids(), set.tags(),
                                          rfid::hash::SlotHasher{}, campaign),
                 std::invalid_argument);
    EXPECT_EQ(campaign(), untouched());
  }
}

}  // namespace
