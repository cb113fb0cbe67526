// The identification oracle battery: both family members checked against
// test-side copies of their original per-round loops, which rebuild the
// unknown list from a full status scan every round and keep per-slot state
// in 32-bit counters and byte arrays. The library's members compact the
// unknown list in place and keep per-slot state in 1-bit maps; every
// IdentifyResult field, and the next draw of the caller's RNG, must come
// out identical.
//
// Grid: n in {1, 2, 7, 64, 250, 1000, 20000} x stolen share {0, 1%, 30%,
// 100%} x channel {ideal; 10% loss; 5% loss + 30% capture, two
// confirmations} x frame_load {0.5, 1, 3} x tree_split_below {0, 512}, at
// max_rounds = 24, for both members; plus a tree split that starts exactly
// at its threshold, and 10^5-tag campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "estimate/cardinality.h"
#include "protocol/identification.h"
#include "protocol/tree_walk.h"
#include "radio/channel.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using namespace rfid;
using protocol::IdentifyConfig;
using protocol::IdentifyProtocolKind;
using protocol::IdentifyResult;

// ------------------------------------------------------------- oracles ----

enum class Status : std::uint8_t { kUnknown, kMissing, kPresent };

void oracle_partition(std::span<const tag::TagId> enrolled,
                      std::span<const Status> status, IdentifyResult& result) {
  for (std::size_t i = 0; i < enrolled.size(); ++i) {
    switch (status[i]) {
      case Status::kMissing: result.missing.push_back(enrolled[i]); break;
      case Status::kPresent: result.present.push_back(enrolled[i]); break;
      case Status::kUnknown: result.unresolved.push_back(enrolled[i]); break;
    }
  }
}

std::uint32_t oracle_sized_frame(double load, double repliers) {
  const auto f = std::llround(load * std::max(repliers, 1.0));
  return static_cast<std::uint32_t>(std::max<long long>(1, f));
}

/// Reader view of one frame: per-slot reply counts resolved slot by slot.
std::uint64_t oracle_observe(std::span<const std::uint32_t> replier_slots,
                             std::uint32_t f,
                             const radio::ChannelModel& channel,
                             util::Rng& rng, std::vector<std::uint8_t>& observed) {
  std::vector<std::uint32_t> occupancy(f, 0);
  for (const std::uint32_t s : replier_slots) ++occupancy[s];
  observed.assign(f, 0);
  std::uint64_t empties = 0;
  for (std::uint32_t s = 0; s < f; ++s) {
    observed[s] = channel.ideal()
                      ? (occupancy[s] > 0 ? 1 : 0)
                      : (radio::occupied(
                             radio::resolve_slot(occupancy[s], channel, rng))
                             ? 1
                             : 0);
    if (observed[s] == 0) ++empties;
  }
  return empties;
}

std::vector<std::uint64_t> oracle_words(std::span<const tag::Tag> tags) {
  std::vector<std::uint64_t> words;
  for (const tag::Tag& t : tags) words.push_back(t.id().slot_word());
  return words;
}

/// The iterative member: candidates rebuilt from a status scan per round.
IdentifyResult oracle_iterative(const IdentifyConfig& config,
                                std::span<const tag::TagId> enrolled,
                                std::span<const tag::Tag> present_tags,
                                const hash::SlotHasher& hasher,
                                util::Rng& rng) {
  IdentifyResult result;
  const std::uint32_t confirmations =
      protocol::required_confirmations(config, enrolled.size());
  result.confirmations_required = confirmations;

  const std::size_t n = enrolled.size();
  std::vector<Status> status(n, Status::kUnknown);
  std::vector<std::uint32_t> streak(n, 0);
  std::size_t unknown_count = n;
  std::size_t candidate_count = n;

  const std::vector<std::uint64_t> replier_words = oracle_words(present_tags);
  std::vector<std::uint32_t> replier_slots(replier_words.size());
  std::vector<std::uint8_t> observed;

  while (unknown_count > 0 && result.rounds < config.max_rounds) {
    ++result.rounds;
    const std::uint32_t f = oracle_sized_frame(
        config.frame_load, static_cast<double>(candidate_count));
    result.total_slots += f;
    const std::uint64_t r = rng();

    tag::bulk_trp_slots(hasher, replier_words, r, f, replier_slots);
    const std::uint64_t empties =
        oracle_observe(replier_slots, f, config.channel, rng, observed);
    result.frame_empty_slots += empties;
    result.frame_reply_slots += f - empties;

    std::vector<std::uint32_t> cand_idx;
    std::vector<std::uint64_t> cand_words;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (status[i] == Status::kMissing) continue;
      cand_idx.push_back(i);
      cand_words.push_back(enrolled[i].slot_word());
    }
    std::vector<std::uint32_t> cand_slots(cand_words.size());
    tag::bulk_trp_slots(hasher, cand_words, r, f, cand_slots);
    std::vector<std::uint32_t> mappers(f, 0);
    for (const std::uint32_t s : cand_slots) ++mappers[s];

    if (result.rounds == 1) {
      const auto est = estimate::estimate_cardinality(empties, f);
      result.estimated_missing = std::max(
          0.0, static_cast<double>(candidate_count) -
                   (est.saturated ? static_cast<double>(candidate_count)
                                  : est.estimate));
    }

    for (std::size_t k = 0; k < cand_idx.size(); ++k) {
      const std::uint32_t i = cand_idx[k];
      if (status[i] != Status::kUnknown) continue;
      const std::uint32_t s = cand_slots[k];
      if (!observed[s]) {
        if (++streak[i] >= confirmations) {
          status[i] = Status::kMissing;
          --unknown_count;
          --candidate_count;
        }
      } else {
        streak[i] = 0;
        if (mappers[s] == 1) {
          status[i] = Status::kPresent;
          --unknown_count;
        }
      }
    }
  }

  oracle_partition(enrolled, status, result);
  return result;
}

/// The filter-first member: active list rebuilt from a status scan per
/// round, per-slot reply and mapper counts, byte-per-slot ACK map.
IdentifyResult oracle_filter_first(const IdentifyConfig& config,
                                   std::span<const tag::TagId> enrolled,
                                   std::span<const tag::Tag> present_tags,
                                   const hash::SlotHasher& hasher,
                                   util::Rng& rng) {
  IdentifyResult result;
  const std::uint32_t confirmations =
      protocol::required_confirmations(config, enrolled.size());
  result.confirmations_required = confirmations;

  const std::size_t n = enrolled.size();
  std::vector<std::uint64_t> words(n);
  for (std::size_t i = 0; i < n; ++i) words[i] = enrolled[i].slot_word();
  std::vector<Status> status(n, Status::kUnknown);
  std::vector<std::uint32_t> streak(n, 0);
  std::size_t unknown = n;

  std::vector<std::uint64_t> replier_words = oracle_words(present_tags);
  double est_repliers = -1.0;
  std::vector<std::uint8_t> observed;

  while (unknown > 0 && result.rounds < config.max_rounds) {
    ++result.rounds;
    std::vector<std::uint32_t> active_idx;
    std::vector<std::uint64_t> active_words;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (status[i] != Status::kUnknown) continue;
      active_idx.push_back(i);
      active_words.push_back(words[i]);
    }

    double sized = static_cast<double>(active_idx.size());
    if (est_repliers >= 0.0) sized = std::min(sized, est_repliers);
    const std::uint32_t f = oracle_sized_frame(config.frame_load, sized);
    result.total_slots += f;
    const std::uint64_t r = rng();

    std::vector<std::uint32_t> active_slots(active_words.size());
    tag::bulk_trp_slots(hasher, active_words, r, f, active_slots);
    std::vector<std::uint32_t> replier_slots(replier_words.size());
    tag::bulk_trp_slots(hasher, replier_words, r, f, replier_slots);

    std::vector<std::uint32_t> mappers(f, 0);
    for (const std::uint32_t s : active_slots) ++mappers[s];
    const std::uint64_t empties =
        oracle_observe(replier_slots, f, config.channel, rng, observed);
    result.frame_empty_slots += empties;
    result.frame_reply_slots += f - empties;

    std::size_t newly_present = 0;
    std::vector<std::uint8_t> acked(f, 0);
    for (std::size_t k = 0; k < active_idx.size(); ++k) {
      const std::uint32_t i = active_idx[k];
      const std::uint32_t s = active_slots[k];
      if (!observed[s]) {
        if (++streak[i] >= confirmations) {
          status[i] = Status::kMissing;
          --unknown;
        }
      } else {
        streak[i] = 0;
        if (mappers[s] == 1) {
          status[i] = Status::kPresent;
          --unknown;
          ++newly_present;
          acked[s] = 1;
        }
      }
    }

    std::vector<std::uint64_t> split_proven_words;
    if (unknown > 0 && unknown <= config.tree_split_below) {
      std::map<std::uint32_t, std::vector<std::uint32_t>> ambiguous;
      for (std::size_t k = 0; k < active_idx.size(); ++k) {
        if (status[active_idx[k]] != Status::kUnknown) continue;
        const std::uint32_t s = active_slots[k];
        if (observed[s] && mappers[s] >= 2) {
          ambiguous[s].push_back(static_cast<std::uint32_t>(k));
        }
      }
      std::map<std::uint32_t, std::vector<std::uint64_t>> slot_repliers;
      for (std::size_t j = 0; j < replier_words.size(); ++j) {
        if (ambiguous.contains(replier_slots[j])) {
          slot_repliers[replier_slots[j]].push_back(replier_words[j]);
        }
      }
      for (const auto& [s, ks] : ambiguous) {
        std::vector<std::uint64_t> cand_w;
        for (const std::uint32_t k : ks) cand_w.push_back(active_words[k]);
        const auto reps = slot_repliers.find(s);
        const auto split = protocol::split_collision_slot(
            cand_w,
            reps == slot_repliers.end()
                ? std::span<const std::uint64_t>{}
                : std::span<const std::uint64_t>(reps->second),
            config.channel, rng);
        result.tree_queries += split.queries;
        result.tree_empty_queries += split.empty_queries;
        result.total_slots += split.queries;
        for (std::size_t c = 0; c < ks.size(); ++c) {
          const std::uint32_t i = active_idx[ks[c]];
          if (split.proven_present[c]) {
            status[i] = Status::kPresent;
            streak[i] = 0;
            --unknown;
            ++newly_present;
            split_proven_words.push_back(words[i]);
          } else if (split.observed_absent[c]) {
            if (++streak[i] >= confirmations) {
              status[i] = Status::kMissing;
              --unknown;
            }
          }
        }
      }
    }

    if (newly_present > 0) {
      result.filter_bits += f;
      std::sort(split_proven_words.begin(), split_proven_words.end());
      std::vector<std::uint64_t> still_answering;
      for (std::size_t j = 0; j < replier_words.size(); ++j) {
        const bool silence =
            acked[replier_slots[j]] != 0 ||
            std::binary_search(split_proven_words.begin(),
                               split_proven_words.end(), replier_words[j]);
        if (!silence) still_answering.push_back(replier_words[j]);
      }
      replier_words = std::move(still_answering);
    }

    const auto est = estimate::estimate_cardinality(empties, f);
    if (result.rounds == 1) {
      result.estimated_missing = std::max(
          0.0, static_cast<double>(n) -
                   (est.saturated ? static_cast<double>(n) : est.estimate));
    }
    if (est.saturated) {
      est_repliers = -1.0;
    } else {
      est_repliers =
          std::max(0.0, est.estimate + 2.0 * est.std_error -
                            static_cast<double>(newly_present));
    }
  }

  oracle_partition(enrolled, status, result);
  return result;
}

// ----------------------------------------------------------- harness ----

void expect_results_equal(const IdentifyResult& got, const IdentifyResult& want,
                          const std::string& where) {
  EXPECT_EQ(got.missing, want.missing) << where;
  EXPECT_EQ(got.present, want.present) << where;
  EXPECT_EQ(got.unresolved, want.unresolved) << where;
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.total_slots, want.total_slots) << where;
  EXPECT_EQ(got.frame_empty_slots, want.frame_empty_slots) << where;
  EXPECT_EQ(got.frame_reply_slots, want.frame_reply_slots) << where;
  EXPECT_EQ(got.tree_queries, want.tree_queries) << where;
  EXPECT_EQ(got.tree_empty_queries, want.tree_empty_queries) << where;
  EXPECT_EQ(got.filter_bits, want.filter_bits) << where;
  EXPECT_EQ(got.confirmations_required, want.confirmations_required) << where;
  // Bit-identical, not merely close: the same arithmetic on the same counts.
  EXPECT_EQ(got.estimated_missing, want.estimated_missing) << where;
}

struct Channel {
  const char* id;    // test-name safe
  const char* name;
  radio::ChannelModel model;
  std::uint32_t confirmations;
};

const Channel kChannels[] = {
    {"ideal", "ideal", {}, 0},
    {"loss10", "10% loss", {.reply_loss_prob = 0.10}, 0},
    {"loss5capture30", "5% loss + 30% capture",
     {.reply_loss_prob = 0.05, .capture_prob = 0.30}, 2},
};
const double kStolenShares[] = {0.0, 0.01, 0.30, 1.0};
const double kFrameLoads[] = {0.5, 1.0, 3.0};
const std::uint32_t kTreeSplitBelow[] = {0, 512};
const IdentifyProtocolKind kKinds[] = {IdentifyProtocolKind::kIterative,
                                       IdentifyProtocolKind::kFilterFirst};

std::size_t stolen_count(std::size_t n, double share) {
  if (share <= 0.0) return 0;
  const auto k = static_cast<std::size_t>(
      std::llround(share * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

/// Runs the member and its oracle on identically seeded RNGs and compares
/// every result field plus the RNG position each leaves behind.
void check_campaign(IdentifyProtocolKind kind, const IdentifyConfig& config,
                    std::span<const tag::TagId> enrolled,
                    std::span<const tag::Tag> present, std::uint64_t seed,
                    const std::string& where) {
  const hash::SlotHasher hasher{};
  const auto member = protocol::make_identification_protocol(kind, config);
  util::Rng member_rng(seed);
  util::Rng oracle_rng(seed);
  const IdentifyResult got = member->identify(enrolled, present, hasher,
                                              member_rng);
  const IdentifyResult want =
      kind == IdentifyProtocolKind::kIterative
          ? oracle_iterative(config, enrolled, present, hasher, oracle_rng)
          : oracle_filter_first(config, enrolled, present, hasher, oracle_rng);
  expect_results_equal(got, want, where);
  EXPECT_EQ(member_rng(), oracle_rng()) << where << " (RNG position)";
}

/// One population size on one channel; the rest of the grid runs inside.
class IdentifyOracle
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(IdentifyOracle, BothMembersMatchTheirPerRoundLoops) {
  const auto [n, channel_index] = GetParam();
  const Channel& channel = kChannels[channel_index];
  std::uint64_t point = 0;
  for (const double share : kStolenShares) {
    util::Rng population_rng(util::derive_seed(0x1d0, n, point));
    tag::TagSet set = tag::TagSet::make_random(n, population_rng);
    const std::vector<tag::TagId> enrolled = set.ids();
    (void)set.steal_random(stolen_count(n, share), population_rng);
    for (const double load : kFrameLoads) {
      for (const std::uint32_t split : kTreeSplitBelow) {
        const IdentifyConfig config{.frame_load = load,
                                    .max_rounds = 24,
                                    .channel = channel.model,
                                    .confirmations = channel.confirmations,
                                    .tree_split_below = split};
        for (const IdentifyProtocolKind kind : kKinds) {
          ++point;
          const std::string where =
              std::string(protocol::to_string(kind)) +
              " n=" + std::to_string(n) +
              " stolen=" + std::to_string(n - set.size()) + " " +
              channel.name + " load=" + std::to_string(load) +
              " split<=" + std::to_string(split);
          check_campaign(kind, config, enrolled, set.tags(),
                         util::derive_seed(0x1d1 + channel_index, n, point),
                         where);
        }
      }
    }
  }
}

// One ctest case per (n, channel), so that no case nears the per-test
// timeout under the sanitizers.
INSTANTIATE_TEST_SUITE_P(
    Grid, IdentifyOracle,
    ::testing::Combine(::testing::Values(1, 2, 7, 64, 250, 1000, 20000),
                       ::testing::Range<std::size_t>(0, std::size(kChannels))),
    [](const ::testing::TestParamInfo<IdentifyOracle::ParamType>& point) {
      std::string name = "n";
      name += std::to_string(std::get<0>(point.param));
      name += '_';
      name += kChannels[std::get<1>(point.param)].id;
      return name;
    });

TEST(IdentifyOracleBoundary, TreeSplitStartsExactlyAtTheThreshold) {
  // A random grid almost never leaves exactly `tree_split_below` unknowns
  // after a round; pin the threshold to the unknown count the first round
  // leaves, so the in-round split must fire right at it.
  const hash::SlotHasher hasher{};
  for (const std::size_t n : {1000u, 5000u}) {
    for (const Channel& channel : kChannels) {
      util::Rng population_rng(util::derive_seed(0x1d4, n));
      tag::TagSet set = tag::TagSet::make_random(n, population_rng);
      const std::vector<tag::TagId> enrolled = set.ids();
      (void)set.steal_random(n / 100, population_rng);
      IdentifyConfig config{.max_rounds = 1,
                            .channel = channel.model,
                            .confirmations = channel.confirmations,
                            .tree_split_below = 0};
      util::Rng probe_rng(0x1d5);
      const std::size_t left_after_one =
          oracle_filter_first(config, enrolled, set.tags(), hasher, probe_rng)
              .unresolved.size();
      ASSERT_GT(left_after_one, 0u);
      config.max_rounds = 24;
      config.tree_split_below = static_cast<std::uint32_t>(left_after_one);
      util::Rng split_rng(0x1d5);
      EXPECT_GT(oracle_filter_first(config, enrolled, set.tags(), hasher,
                                    split_rng)
                    .tree_queries,
                0u);
      check_campaign(IdentifyProtocolKind::kFilterFirst, config, enrolled,
                     set.tags(), 0x1d5,
                     "filter_first n=" + std::to_string(n) + " " +
                         channel.name + " split<=" +
                         std::to_string(left_after_one));
    }
  }
}

TEST(IdentifyOracleScale, HundredThousandTagCampaigns) {
  constexpr std::size_t kTags = 100000;
  util::Rng population_rng(0x1d2);
  tag::TagSet set = tag::TagSet::make_random(kTags, population_rng);
  const std::vector<tag::TagId> enrolled = set.ids();
  (void)set.steal_random(kTags / 100, population_rng);
  for (const IdentifyProtocolKind kind : kKinds) {
    for (const Channel& channel : kChannels) {
      const IdentifyConfig config{.max_rounds = 24,
                                  .channel = channel.model,
                                  .confirmations = channel.confirmations};
      check_campaign(kind, config, enrolled, set.tags(), 0x1d3,
                     std::string(protocol::to_string(kind)) + " n=100000 " +
                         channel.name);
    }
  }
}

}  // namespace
