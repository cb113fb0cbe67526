// Tests for enrollment snapshot persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string_view>

#include "protocol/utrp.h"
#include "server/snapshot.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using rfid::server::EnrolledGroup;
using rfid::server::GroupConfig;
using rfid::server::load_snapshot;
using rfid::server::ProtocolKind;
using rfid::server::restore_server;
using rfid::server::save_snapshot;
using rfid::tag::TagSet;

std::vector<EnrolledGroup> sample_groups(rfid::util::Rng& rng) {
  std::vector<EnrolledGroup> groups;
  {
    EnrolledGroup g;
    g.config = GroupConfig{.name = "front shelf A",
                           .policy = {.tolerated_missing = 5, .confidence = 0.95},
                           .protocol = ProtocolKind::kTrp};
    g.tags = TagSet::make_random(40, rng);
    groups.push_back(std::move(g));
  }
  {
    EnrolledGroup g;
    g.config = GroupConfig{.name = "cage (night shift)",
                           .policy = {.tolerated_missing = 2, .confidence = 0.99},
                           .protocol = ProtocolKind::kUtrp,
                           .comm_budget = 35,
                           .slack_slots = 10};
    g.tags = TagSet::make_random(25, rng);
    // Give the tags non-trivial counters, as after some UTRP rounds.
    for (auto& t : g.tags.tags()) {
      for (std::uint64_t i = 0; i < 1 + (t.id().lo() % 5); ++i) {
        (void)t.utrp_receive_seed(rfid::hash::SlotHasher{}, 1, 8);
      }
      t.begin_round();
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

TEST(Snapshot, RoundTripPreservesEverything) {
  rfid::util::Rng rng(1);
  const auto groups = sample_groups(rng);
  std::stringstream stream;
  save_snapshot(stream, groups);
  const auto loaded = load_snapshot(stream);

  ASSERT_EQ(loaded.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(loaded[g].config.name, groups[g].config.name);
    EXPECT_EQ(loaded[g].config.protocol, groups[g].config.protocol);
    EXPECT_EQ(loaded[g].config.policy.tolerated_missing,
              groups[g].config.policy.tolerated_missing);
    EXPECT_DOUBLE_EQ(loaded[g].config.policy.confidence,
                     groups[g].config.policy.confidence);
    EXPECT_EQ(loaded[g].config.comm_budget, groups[g].config.comm_budget);
    EXPECT_EQ(loaded[g].config.slack_slots, groups[g].config.slack_slots);
    ASSERT_EQ(loaded[g].tags.size(), groups[g].tags.size());
    for (std::size_t i = 0; i < groups[g].tags.size(); ++i) {
      EXPECT_EQ(loaded[g].tags.at(i).id(), groups[g].tags.at(i).id());
      EXPECT_EQ(loaded[g].tags.at(i).counter(), groups[g].tags.at(i).counter());
    }
  }
}

TEST(Snapshot, EmptyGroupListRoundTrips) {
  std::stringstream stream;
  save_snapshot(stream, {});
  EXPECT_TRUE(load_snapshot(stream).empty());
}

TEST(Snapshot, ChecksumCatchesCorruption) {
  rfid::util::Rng rng(2);
  std::stringstream stream;
  save_snapshot(stream, sample_groups(rng));
  std::string text = stream.str();
  // Flip one hex digit inside a TAG line.
  const auto pos = text.find("TAG ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 4] = text[pos + 4] == '0' ? '1' : '0';
  std::istringstream corrupted(text);
  EXPECT_THROW((void)load_snapshot(corrupted), std::invalid_argument);
}

TEST(Snapshot, TruncationDetected) {
  rfid::util::Rng rng(3);
  std::stringstream stream;
  save_snapshot(stream, sample_groups(rng));
  std::string text = stream.str();
  text.resize(text.size() / 2);
  std::istringstream truncated(text);
  EXPECT_THROW((void)load_snapshot(truncated), std::invalid_argument);
}

TEST(Snapshot, RejectsWrongMagic) {
  std::istringstream bogus("SOMETHING ELSE\n");
  EXPECT_THROW((void)load_snapshot(bogus), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW((void)load_snapshot(empty), std::invalid_argument);
}

TEST(Snapshot, RejectsMultilineGroupName) {
  EnrolledGroup g;
  g.config.name = "evil\nname";
  rfid::util::Rng rng(4);
  g.tags = TagSet::make_random(1, rng);
  std::stringstream stream;
  EXPECT_THROW(save_snapshot(stream, {g}), std::invalid_argument);
}

TEST(Snapshot, RestoredUtrpServerVerifiesAgainstLiveTags) {
  // The operational point of persistence: a UTRP server rebuilt from a
  // snapshot (counters included!) must verify the real tags' next round.
  rfid::util::Rng rng(5);
  TagSet live = TagSet::make_random(120, rng);

  // Run some rounds against an initial server so the counters move.
  rfid::protocol::UtrpServer original(
      live, {.tolerated_missing = 3, .confidence = 0.95}, 20);
  const rfid::protocol::UtrpReader reader;
  for (int round = 0; round < 3; ++round) {
    const auto c = original.issue_challenge(rng);
    const auto scan = reader.scan(live.tags(), c);
    const auto verdict = original.commit_round(c, scan.bitstring);
    ASSERT_TRUE(verdict.intact);
    live.begin_round();
  }

  // Snapshot the CURRENT state (a physical audit) and restore elsewhere.
  EnrolledGroup g;
  g.config = GroupConfig{.name = "restored",
                         .policy = {.tolerated_missing = 3, .confidence = 0.95},
                         .protocol = ProtocolKind::kUtrp,
                         .comm_budget = 20};
  g.tags = live;  // snapshot includes counters
  std::stringstream stream;
  save_snapshot(stream, {g});
  auto server = restore_server(load_snapshot(stream));

  const auto id = rfid::server::GroupId{0};
  const auto c = server.challenge_utrp(id, rng);
  const auto scan = reader.scan(live.tags(), c);
  EXPECT_TRUE(server.submit_utrp(id, c, scan.bitstring, true).intact);
}

/// Expects `fn` to throw std::invalid_argument whose message contains
/// `fragment` — how every malformed-snapshot case asserts the error is
/// actually useful to the operator reading it, not just thrown.
template <typename Fn>
void expect_rejected_with(Fn&& fn, std::string_view fragment) {
  try {
    fn();
    FAIL() << "expected rejection mentioning \"" << fragment << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string_view(e.what()).find(fragment), std::string_view::npos)
        << "message \"" << e.what() << "\" does not mention \"" << fragment
        << "\"";
  }
}

TEST(Snapshot, ErrorsCarryTheOffendingLineNumber) {
  rfid::util::Rng rng(7);
  std::stringstream stream;
  save_snapshot(stream, sample_groups(rng));
  std::string text = stream.str();
  // Break the hex of the first TAG line and compute which line that is.
  const auto pos = text.find("TAG ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 4] = 'z';
  const auto lineno =
      1 + static_cast<std::uint64_t>(
              std::count(text.begin(), text.begin() + static_cast<long>(pos), '\n'));
  expect_rejected_with(
      [&] {
        std::istringstream is(text);
        (void)load_snapshot(is);
      },
      "line " + std::to_string(lineno) + ": bad TAG hex");
}

TEST(Snapshot, MalformedCorpusIsRejectedWithUsefulMessages) {
  rfid::util::Rng rng(8);
  std::stringstream stream;
  save_snapshot(stream, sample_groups(rng));
  const std::string good = stream.str();

  const auto load_text = [](std::string text) {
    return [text = std::move(text)] {
      std::istringstream is(text);
      (void)load_snapshot(is);
    };
  };

  // Truncated before the END line: the checksum never arrives.
  expect_rejected_with(load_text(good.substr(0, good.rfind("END "))),
                       "snapshot truncated (no END line)");
  // END present but its checksum is not hex.
  std::string bad_hex = good.substr(0, good.rfind("END "));
  bad_hex += "END zzzz\n";
  expect_rejected_with(load_text(bad_hex), "bad END checksum hex");
  // END checksum is valid hex for the wrong body.
  std::string wrong_sum = good.substr(0, good.rfind("END "));
  wrong_sum += "END 0\n";
  expect_rejected_with(load_text(wrong_sum), "snapshot checksum mismatch");
  // A TAG line with no GROUP to own it.
  expect_rejected_with(
      load_text("RFIDMON-SNAPSHOT 1\nTAG 00000001 0000000000000002 0\nEND 0\n"),
      "TAG line before any GROUP");
  // Two groups with the same name would collide on restore.
  {
    rfid::util::Rng rng2(9);
    EnrolledGroup a, b;
    a.config.name = b.config.name = "same shelf";
    a.tags = TagSet::make_random(2, rng2);
    b.tags = TagSet::make_random(2, rng2);
    std::stringstream dup;
    save_snapshot(dup, {a, b});
    expect_rejected_with(load_text(dup.str()),
                         "duplicate GROUP name: same shelf");
  }
}

TEST(Snapshot, PropertyRandomGroupSetsRoundTripExactly) {
  // Property test: any server-producible group set must survive save -> load
  // -> save byte-identically. Byte equality of the re-save subsumes field
  // equality and pins the format itself (a formatting change that loses
  // precision or reorders fields fails here).
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    rfid::util::Rng rng(seed);
    std::vector<EnrolledGroup> groups;
    const std::size_t group_count = rng.below(5);  // 0..4 groups
    for (std::size_t g = 0; g < group_count; ++g) {
      EnrolledGroup group;
      const bool utrp = rng.chance(0.5);
      group.config.name = "group " + std::to_string(seed) + "-" +
                          std::to_string(g) + (utrp ? " (cage)" : "");
      group.config.protocol = utrp ? ProtocolKind::kUtrp : ProtocolKind::kTrp;
      group.config.policy.tolerated_missing = rng.below(7);
      group.config.policy.confidence =
          0.90 + 0.01 * static_cast<double>(rng.below(10));
      group.config.comm_budget = 10 + rng.below(50);
      group.config.slack_slots = static_cast<std::uint32_t>(rng.below(16));
      group.tags = TagSet::make_random(1 + rng.below(30), rng);
      if (utrp) {
        for (auto& t : group.tags.tags()) {
          const std::uint64_t advances = rng.below(6);
          for (std::uint64_t i = 0; i < advances; ++i) {
            (void)t.utrp_receive_seed(rfid::hash::SlotHasher{}, 1, 8);
          }
          t.begin_round();
        }
      }
      groups.push_back(std::move(group));
    }

    std::stringstream first;
    save_snapshot(first, groups);
    std::istringstream reload(first.str());
    const auto loaded = load_snapshot(reload);
    std::stringstream second;
    save_snapshot(second, loaded);
    ASSERT_EQ(second.str(), first.str()) << "seed " << seed;
  }
}

namespace failing_stream {

/// streambuf with a real buffer whose flush always fails — models a disk
/// that accepts writes into the page cache and errors only at sync time.
class FlushFailBuf : public std::streambuf {
 public:
  FlushFailBuf() { setp(buf_, buf_ + sizeof(buf_)); }

 protected:
  int sync() override { return -1; }
  int_type overflow(int_type) override { return traits_type::eof(); }

 private:
  char buf_[1 << 16];
};

}  // namespace failing_stream

TEST(Snapshot, SaveThrowsWhenTheStreamFailsOnlyAtFlush) {
  // Regression for the silent-loss bug: every write fits the buffer, so the
  // stream stays good() until flush. save_snapshot must flush and check, or
  // this "successful" save would never reach storage.
  rfid::util::Rng rng(10);
  const auto groups = sample_groups(rng);
  failing_stream::FlushFailBuf buf;
  std::ostream os(&buf);
  EXPECT_THROW(save_snapshot(os, groups), std::invalid_argument);
}

TEST(Snapshot, RestoreServerPreservesGroupOrderAndSizes) {
  rfid::util::Rng rng(6);
  const auto groups = sample_groups(rng);
  const auto server = restore_server(groups);
  EXPECT_EQ(server.group_count(), 2u);
  EXPECT_EQ(server.group_size(rfid::server::GroupId{0}), 40u);
  EXPECT_EQ(server.group_size(rfid::server::GroupId{1}), 25u);
  EXPECT_EQ(server.config(rfid::server::GroupId{1}).comm_budget, 35u);
}

}  // namespace
