// The oracle battery: the columnar server engines — the only server-side
// tag representation — checked against the per-tag state machine.
//
// Engine cases run a test-side oracle live next to each server, across a
// grid of population sizes (straddling the 64-tag bitmap word, up to 10^5)
// and seeds:
//   * TRP: the per-tag slot loop, one SlotHasher::slot per enrolled id;
//   * UTRP: the frozen per-tag walk (tests/per_tag_utrp_walk.h) over a
//     std::vector<tag::Tag> mirror, with every server mirror entry (id,
//     counter, silenced) compared against it after each round step;
//   * multi-round: campaign verdicts recomputed from the TRP oracle.
//
// Larger cases — wire sessions under noisy fault scripts, a 10^5-tag
// session, and a full InventoryServer operation script fingerprinted after
// every step (dump_state() plus the Prometheus exposition, the
// rfidmon_bulk_slots_total series included) — are pinned to fingerprints
// recorded while the per-tag and columnar server paths both existed and
// agreed bit for bit. The script's pins from its first UTRP round on were
// re-derived when the UTRP round step went from two mirror walks to one:
// each is the earlier text with every utrp_seed value halved.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "hash/fnv.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "per_tag_utrp_walk.h"
#include "protocol/multi_round.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "server/inventory_server.h"
#include "sim/event_queue.h"
#include "storage/server_state.h"
#include "tag/tag_set.h"
#include "util/random.h"
#include "wire/session.h"

namespace {

using namespace rfid;

const std::size_t kGrid[] = {1, 2, 63, 64, 65, 1000, 100000};

/// Tolerance scaled so Eq. (2) frames stay sane across the whole grid.
std::uint64_t tolerance_for(std::size_t n) { return n < 10 ? 0 : n / 10; }

void expect_verdicts_equal(const protocol::Verdict& a,
                           const protocol::Verdict& b) {
  EXPECT_EQ(a.intact, b.intact);
  EXPECT_EQ(a.mismatched_slots, b.mismatched_slots);
  if (!a.intact && !b.intact) {
    EXPECT_EQ(a.first_mismatch_slot, b.first_mismatch_slot);
  }
  EXPECT_EQ(a.deadline_met, b.deadline_met);
}

// ------------------------------------------------------------- oracles ----

/// TRP expected bitstring, one tag at a time.
bits::Bitstring oracle_trp_expected(std::span<const tag::TagId> ids,
                                    const hash::SlotHasher& hasher,
                                    const protocol::TrpChallenge& challenge) {
  bits::Bitstring bs(challenge.frame_size);
  for (const tag::TagId& id : ids) {
    bs.set(hasher.slot(id.slot_word(), challenge.r, challenge.frame_size));
  }
  return bs;
}

protocol::Verdict oracle_verdict(const bits::Bitstring& expected,
                                 const bits::Bitstring& reported,
                                 bool deadline_met = true) {
  protocol::Verdict verdict;
  verdict.deadline_met = deadline_met;
  verdict.mismatched_slots = expected.hamming_distance(reported);
  verdict.intact = deadline_met && verdict.mismatched_slots == 0;
  if (verdict.mismatched_slots != 0) {
    verdict.first_mismatch_slot = *expected.first_difference(reported);
  }
  return verdict;
}

/// The UTRP server as the per-tag state machine: a row-oriented mirror that
/// expected() walks on a copy and commit() walks in place.
struct UtrpOracle {
  std::vector<tag::Tag> mirror;
  hash::SlotHasher hasher;
  bool needs_resync = false;

  [[nodiscard]] bits::Bitstring expected(
      const protocol::UtrpChallenge& challenge) const {
    std::vector<tag::Tag> copy = mirror;
    return test::per_tag_utrp_walk(copy, hasher, challenge, nullptr, nullptr)
        .bitstring;
  }

  void commit(const protocol::UtrpChallenge& challenge,
              const protocol::Verdict& verdict) {
    if (!verdict.intact) {
      needs_resync = true;
      return;
    }
    (void)test::per_tag_utrp_walk(mirror, hasher, challenge, nullptr, nullptr);
  }
};

void expect_mirror_matches(const protocol::UtrpServer& server,
                           const UtrpOracle& oracle, std::size_t n) {
  ASSERT_EQ(server.needs_resync(), oracle.needs_resync) << "n=" << n;
  const tag::ColumnarTagSet& mirror = server.mirror();
  ASSERT_EQ(mirror.size(), oracle.mirror.size());
  for (std::size_t i = 0; i < mirror.size(); ++i) {
    ASSERT_EQ(mirror.id(i), oracle.mirror[i].id()) << "n=" << n << " i=" << i;
    ASSERT_EQ(mirror.counter(i), oracle.mirror[i].counter())
        << "n=" << n << " i=" << i;
    ASSERT_EQ(mirror.silenced(i), oracle.mirror[i].silenced())
        << "n=" << n << " i=" << i;
  }
}

// -------------------------------------------------------- fingerprints ----

std::string fingerprint(const std::string& text) {
  const std::uint64_t h =
      hash::fnv1a64(std::as_bytes(std::span(text.data(), text.size())));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Every observable field of a session outcome, exactly (finished_at_us in
/// hexfloat so the fingerprint pins the double bit for bit).
std::string render(const wire::SessionOutcome& o) {
  std::ostringstream out;
  out << "completed " << o.completed << " failure "
      << static_cast<int>(o.failure) << " rounds " << o.rounds_completed
      << '\n';
  for (const wire::RoundFailure& f : o.round_failures) {
    out << "round_failure " << f.round << ' ' << static_cast<int>(f.reason)
        << '\n';
  }
  for (const protocol::Verdict& v : o.verdicts) {
    out << "verdict " << v.intact << ' ' << v.mismatched_slots << ' '
        << v.first_mismatch_slot << ' ' << v.deadline_met << '\n';
  }
  for (const bits::Bitstring& b : o.reported) {
    out << "reported " << b.size() << ' ' << b.to_hex() << '\n';
  }
  out << "frames " << o.frames_sent << ' ' << o.frames_dropped << ' '
      << o.retransmissions << " finished " << std::hexfloat
      << o.finished_at_us << std::defaultfloat << " faults "
      << o.corrupt_frames_dropped << ' ' << o.burst_frames_dropped << ' '
      << o.frames_duplicated << ' ' << o.frames_reordered << ' '
      << o.reader_crashes << '\n';
  return out.str();
}

// ----------------------------------------------------- protocol engines ----

TEST(ColumnarDiff, TrpServerBitIdenticalAcrossGrid) {
  for (const std::size_t n : kGrid) {
    util::Rng rng(util::derive_seed(100, n));
    const tag::TagSet set = tag::TagSet::make_random(n, rng);
    const std::vector<tag::TagId> ids = set.ids();
    const protocol::MonitoringPolicy policy{tolerance_for(n), 0.9};
    const protocol::TrpServer server(ids, policy);
    const hash::SlotHasher hasher;

    for (int round = 0; round < 3; ++round) {
      const protocol::TrpChallenge c = server.issue_challenge(rng);
      const bits::Bitstring expected = server.expected_bitstring(c);
      const bits::Bitstring oracle = oracle_trp_expected(ids, hasher, c);
      ASSERT_EQ(expected, oracle) << "n=" << n << " round=" << round;

      // Honest report, then a perturbed one: verdicts must agree bit for
      // bit, including the first-mismatch slot.
      expect_verdicts_equal(server.verify(c, oracle),
                            oracle_verdict(oracle, oracle));
      bits::Bitstring perturbed = oracle;
      perturbed.set(c.frame_size / 2, !perturbed.test(c.frame_size / 2));
      expect_verdicts_equal(server.verify(c, perturbed),
                            oracle_verdict(oracle, perturbed));
    }
  }
}

TEST(ColumnarDiff, UtrpServerBitIdenticalWithCommits) {
  // UTRP's walk is O(n^2) in total hash work by design (every re-seed
  // re-hashes the remaining active tags), so the grid caps at 10^3 here.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{1000}}) {
    util::Rng rng(util::derive_seed(200, n));
    const tag::TagSet set = tag::TagSet::make_random(n, rng);
    const protocol::MonitoringPolicy policy{tolerance_for(n), 0.9};
    protocol::UtrpServer server(set, policy, 20);
    UtrpOracle oracle{{set.tags().begin(), set.tags().end()},
                      hash::SlotHasher{}, false};
    expect_mirror_matches(server, oracle, n);

    tag::TagSet present = set;
    const protocol::UtrpReader reader;
    for (int round = 0; round < 3; ++round) {
      const protocol::UtrpChallenge c = server.issue_challenge(rng);
      const bits::Bitstring expected = oracle.expected(c);
      ASSERT_EQ(server.expected_bitstring(c), expected)
          << "n=" << n << " round=" << round;

      const auto scan = reader.scan(present.tags(), c);
      ASSERT_EQ(scan.bitstring, expected);
      // The round step advances the mirror counters: after this the NEXT
      // round's expectation depends on its walk having run identically.
      const protocol::Verdict verdict = server.commit_round(c, scan.bitstring);
      expect_verdicts_equal(verdict, oracle_verdict(expected, scan.bitstring));
      oracle.commit(c, verdict);
      expect_mirror_matches(server, oracle, n);
      present.begin_round();
    }

    // A tampered round: the verdict fails, the step leaves the mirror as it
    // was, and both sides flag the divergence.
    const protocol::UtrpChallenge c = server.issue_challenge(rng);
    bits::Bitstring tampered = oracle.expected(c);
    tampered.set(0, !tampered.test(0));
    const protocol::Verdict verdict = server.commit_round(c, tampered);
    expect_verdicts_equal(verdict, oracle_verdict(oracle.expected(c), tampered));
    oracle.commit(c, verdict);
    expect_mirror_matches(server, oracle, n);
    EXPECT_TRUE(server.needs_resync());
  }
}

TEST(ColumnarDiff, MultiRoundCampaignsBitIdentical) {
  for (const std::size_t n : {std::size_t{100}, std::size_t{1000}}) {
    util::Rng rng(util::derive_seed(300, n));
    tag::TagSet set = tag::TagSet::make_random(n, rng);
    const std::vector<tag::TagId> ids = set.ids();
    const protocol::MonitoringPolicy policy{0, 0.99};
    const protocol::MultiRoundTrpServer server(ids, policy, 4);

    const tag::TagSet stolen = set.steal_random(1, rng);
    const auto challenges = server.issue_challenges(rng);

    const protocol::TrpReader reader;
    std::vector<bits::Bitstring> reported;
    for (const auto& c : challenges) {
      reported.push_back(reader.scan(set.tags(), c, rng));
    }
    // The oracle campaign: intact only if every round matches; otherwise
    // the first failing round describes the verdict.
    protocol::Verdict want;
    want.intact = true;
    const hash::SlotHasher hasher;
    for (std::size_t k = 0; k < challenges.size(); ++k) {
      const bits::Bitstring expected =
          oracle_trp_expected(ids, hasher, challenges[k]);
      if (expected != reported[k]) {
        want = oracle_verdict(expected, reported[k]);
        break;
      }
    }
    expect_verdicts_equal(server.verify(challenges, reported), want);
  }
}

// ------------------------------------ wire sessions under fault scripts ----

fault::FaultPlan noisy_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.burst.p_enter_bad = 0.05;
  plan.burst.p_exit_bad = 0.5;
  plan.corrupt_prob = 0.02;
  plan.duplicate_prob = 0.05;
  plan.reorder_prob = 0.03;
  return plan;
}

struct PinnedSession {
  std::size_t n;
  bool faulty;
  const char* fingerprint;
};

TEST(ColumnarDiff, TrpWireSessionsMatchUnderFaults) {
  const PinnedSession pins[] = {
      {1, false, "158d996b3b12b70b"},    {1, true, "874736c1f7e79273"},
      {63, false, "9553d52c21a15542"},   {63, true, "dc78528a7e3d9098"},
      {65, false, "77803e69bb2ae13b"},   {65, true, "58e430a23c3eb756"},
      {1000, false, "e1cd74858da2c985"}, {1000, true, "cf40e41e1ca56edb"},
  };
  for (const PinnedSession& pin : pins) {
    const std::size_t n = pin.n;
    const fault::FaultPlan plan = noisy_plan(util::derive_seed(7, n));
    util::Rng rng_theft(util::derive_seed(400, n));
    tag::TagSet set = tag::TagSet::make_random(n, rng_theft);
    if (n > 10) (void)set.steal_random(2, rng_theft);

    const protocol::TrpServer server(set.ids(), {tolerance_for(n), 0.9});
    wire::SessionConfig session;
    session.uplink.drop_prob = 0.1;
    session.downlink.drop_prob = 0.1;
    if (pin.faulty) session.faults = &plan;
    sim::EventQueue queue;
    util::Rng rng(util::derive_seed(500, n));
    const wire::SessionOutcome outcome =
        wire::run_trp_session(queue, server, set.tags(), 3, session, rng);
    EXPECT_EQ(fingerprint(render(outcome)), pin.fingerprint)
        << "n=" << n << " faulty=" << pin.faulty;
  }
}

TEST(ColumnarDiff, UtrpWireSessionsMatchUnderFaults) {
  const PinnedSession pins[] = {
      {1, false, "c06e51db96a002a8"},    {1, true, "c83dd436931bf4e8"},
      {64, false, "1c68cc4c8f904784"},   {64, true, "e79bbc56207e7fe1"},
      {1000, false, "7f0b212f425f24ce"}, {1000, true, "ceb0188d81791b99"},
  };
  for (const PinnedSession& pin : pins) {
    const std::size_t n = pin.n;
    const fault::FaultPlan plan = noisy_plan(util::derive_seed(8, n));
    util::Rng rng_make(util::derive_seed(600, n));
    const tag::TagSet set = tag::TagSet::make_random(n, rng_make);

    protocol::UtrpServer server(set, {tolerance_for(n), 0.9}, 20);
    tag::TagSet present = set;  // sessions mutate counters
    wire::SessionConfig session;
    session.uplink.drop_prob = 0.05;
    session.downlink.drop_prob = 0.05;
    if (pin.faulty) session.faults = &plan;
    sim::EventQueue queue;
    util::Rng rng(util::derive_seed(700, n));
    const wire::SessionOutcome outcome = wire::run_utrp_session(
        queue, server, present.tags(), 2, session, rng);
    EXPECT_EQ(fingerprint(render(outcome)), pin.fingerprint)
        << "n=" << n << " faulty=" << pin.faulty;
  }
}

TEST(ColumnarDiff, TrpSessionAtHundredThousandTags) {
  const std::size_t n = 100000;
  util::Rng rng_make(9100);
  tag::TagSet set = tag::TagSet::make_random(n, rng_make);
  (void)set.steal_random(n / 10 + 5, rng_make);  // beyond tolerance

  const protocol::TrpServer server(set.ids(), {tolerance_for(n), 0.9});
  sim::EventQueue queue;
  util::Rng rng(9200);
  const wire::SessionOutcome outcome =
      wire::run_trp_session(queue, server, set.tags(), 2, {}, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(fingerprint(render(outcome)), "b8c613105290fa06");
}

// ------------- the full InventoryServer, fingerprinted after every step ----

TEST(ColumnarDiff, InventoryServerStateAndExpositionBitIdentical) {
  // One server driven by a fixed operation script. After EVERY operation
  // the dump_state() text and the Prometheus exposition are fingerprinted
  // and compared, in order, with the pinned values.
  const char* const pins[] = {
      "e84859039d3a0af6",  // after enroll
      "e38734dd2eb0dff2",  // after TRP round 0
      "02c2658d5922b1ee",  // after TRP round 1 (and its replayed challenge)
      "c1e92411ff7a2150",  // after TRP round 2
      "bf1bdec7c83de184",  // after theft round
      "48e880482b117d0a",  // after UTRP round 0
      "20e46db6ce223482",  // after UTRP round 1
      "49a5653a6c565996",  // after re_enroll
      "b5f493941e824908",  // after post-re_enroll round
      "4f942555efddebc2",  // after resync
      "e60c13395de0838a",  // after decommission
  };
  obs::MetricsRegistry registry;
  server::InventoryServer inventory;
  inventory.attach_metrics(&registry);
  util::Rng rng(4242);
  std::size_t step = 0;
  const auto check = [&](const char* where) {
    ASSERT_LT(step, std::size(pins)) << where;
    EXPECT_EQ(fingerprint(storage::dump_state(inventory) + "\n--\n" +
                          obs::render_prometheus(registry.snapshot())),
              pins[step])
        << where;
    ++step;
  };

  tag::TagSet trp_tags = tag::TagSet::make_random(65, rng);
  server::GroupConfig trp_cfg;
  trp_cfg.name = "aisle";
  trp_cfg.policy = {2, 0.9};
  const server::GroupId gt = inventory.enroll(trp_tags, trp_cfg);

  tag::TagSet utrp_tags = tag::TagSet::make_random(200, rng);
  server::GroupConfig utrp_cfg;
  utrp_cfg.name = "cage";
  utrp_cfg.policy = {3, 0.9};
  utrp_cfg.protocol = server::ProtocolKind::kUtrp;
  const server::GroupId gu = inventory.enroll(utrp_tags, utrp_cfg);
  check("after enroll");

  const protocol::TrpReader trp_reader;
  const protocol::UtrpReader utrp_reader;

  // Honest TRP rounds — including a repeated challenge, which the server
  // serves from its expected-bitstring cache.
  for (int round = 0; round < 3; ++round) {
    const auto c = inventory.challenge_trp(gt, rng);
    EXPECT_TRUE(
        inventory.submit_trp(gt, c, trp_reader.scan(trp_tags.tags(), c, rng))
            .intact);
    if (round == 1) {  // replay: second submission of the same challenge
      EXPECT_TRUE(
          inventory.submit_trp(gt, c, trp_reader.scan(trp_tags.tags(), c, rng))
              .intact);
    }
    check("after TRP round");
  }

  // Theft beyond tolerance, then a round.
  (void)trp_tags.steal_random(5, rng);
  {
    const auto c = inventory.challenge_trp(gt, rng);
    (void)inventory.submit_trp(gt, c, trp_reader.scan(trp_tags.tags(), c, rng));
    check("after theft round");
  }

  // UTRP rounds with commits.
  for (int round = 0; round < 2; ++round) {
    const auto c = inventory.challenge_utrp(gu, rng);
    const auto scan = utrp_reader.scan(utrp_tags.tags(), c);
    EXPECT_TRUE(inventory.submit_utrp(gu, c, scan.bitstring, true).intact);
    utrp_tags.begin_round();
    check("after UTRP round");
  }

  // Re-enrollment (must invalidate the TRP cache) and a fresh round.
  inventory.re_enroll(gt, trp_tags, trp_cfg);
  EXPECT_EQ(inventory.expected_cache_entries(), 0u);
  check("after re_enroll");
  {
    const auto c = inventory.challenge_trp(gt, rng);
    EXPECT_TRUE(
        inventory.submit_trp(gt, c, trp_reader.scan(trp_tags.tags(), c, rng))
            .intact);
    check("after post-re_enroll round");
  }

  // UTRP resync and decommission.
  inventory.resync(gu, utrp_tags);
  check("after resync");
  inventory.decommission(gt);
  check("after decommission");
  EXPECT_EQ(step, std::size(pins));
}

}  // namespace
