// Tests for the multi-group InventoryServer front-end.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "protocol/utrp.h"
#include "server/inventory_server.h"
#include "server/snapshot.h"
#include "storage/server_state.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace {

using rfid::protocol::MonitoringPolicy;
using rfid::server::GroupConfig;
using rfid::server::GroupId;
using rfid::server::InventoryServer;
using rfid::server::ProtocolKind;
using rfid::tag::TagSet;

GroupConfig trp_config(std::string name, std::uint64_t m, double alpha = 0.95) {
  GroupConfig cfg;
  cfg.name = std::move(name);
  cfg.policy = MonitoringPolicy{.tolerated_missing = m, .confidence = alpha};
  cfg.protocol = ProtocolKind::kTrp;
  return cfg;
}

GroupConfig utrp_config(std::string name, std::uint64_t m, double alpha = 0.95) {
  GroupConfig cfg = trp_config(std::move(name), m, alpha);
  cfg.protocol = ProtocolKind::kUtrp;
  return cfg;
}

TEST(InventoryServer, EnrollsHeterogeneousGroups) {
  rfid::util::Rng rng(1);
  InventoryServer server;
  const TagSet razors = TagSet::make_random(50, rng);
  const TagSet pallets = TagSet::make_random(800, rng);
  const GroupId g1 = server.enroll(razors, trp_config("razors", 0, 0.99));
  const GroupId g2 = server.enroll(pallets, utrp_config("pallets", 30));
  EXPECT_EQ(server.group_count(), 2u);
  EXPECT_EQ(server.group_size(g1), 50u);
  EXPECT_EQ(server.group_size(g2), 800u);
  EXPECT_EQ(server.config(g1).name, "razors");
  EXPECT_EQ(server.config(g2).name, "pallets");
  EXPECT_GT(server.frame_size(g1), 0u);
  EXPECT_GT(server.frame_size(g2), 0u);
}

TEST(InventoryServer, ToStringNames) {
  EXPECT_EQ(rfid::server::to_string(ProtocolKind::kTrp), "TRP");
  EXPECT_EQ(rfid::server::to_string(ProtocolKind::kUtrp), "UTRP");
}

TEST(InventoryServer, TrpRoundLifecycle) {
  rfid::util::Rng rng(2);
  InventoryServer server;
  const TagSet set = TagSet::make_random(300, rng);
  const GroupId id = server.enroll(set, trp_config("shelf", 5));

  const auto challenge = server.challenge_trp(id, rng);
  const rfid::protocol::TrpReader reader;
  const auto verdict =
      server.submit_trp(id, challenge, reader.scan(set.tags(), challenge, rng));
  EXPECT_TRUE(verdict.intact);
  EXPECT_EQ(server.rounds_completed(id), 1u);
  EXPECT_TRUE(server.alerts().empty());
}

TEST(InventoryServer, TrpTheftRaisesAlertWithTriage) {
  rfid::util::Rng rng(3);
  InventoryServer server;
  TagSet set = TagSet::make_random(600, rng);
  const GroupId id = server.enroll(set, trp_config("shelf", 5));
  (void)set.steal_random(200, rng);

  const auto challenge = server.challenge_trp(id, rng);
  const rfid::protocol::TrpReader reader;
  const auto verdict =
      server.submit_trp(id, challenge, reader.scan(set.tags(), challenge, rng));
  EXPECT_FALSE(verdict.intact);
  ASSERT_EQ(server.alerts().size(), 1u);
  const auto& alert = server.alerts().front();
  EXPECT_EQ(alert.group_name, "shelf");
  EXPECT_EQ(alert.enrolled_size, 600u);
  EXPECT_GT(alert.mismatched_slots, 0u);
  // Triage: the estimate should be much closer to 400 than to 600.
  EXPECT_LT(alert.estimated_present, 520.0);
  EXPECT_GT(alert.estimated_present, 280.0);
}

TEST(InventoryServer, UtrpRoundLifecycleWithCommit) {
  rfid::util::Rng rng(4);
  InventoryServer server;
  TagSet set = TagSet::make_random(250, rng);
  const GroupId id = server.enroll(set, utrp_config("cage", 5));
  const rfid::protocol::UtrpReader reader;

  for (int round = 0; round < 3; ++round) {
    const auto challenge = server.challenge_utrp(id, rng);
    const auto scan = reader.scan(set.tags(), challenge);
    const auto verdict = server.submit_utrp(id, challenge, scan.bitstring, true);
    EXPECT_TRUE(verdict.intact) << "round " << round;
    EXPECT_FALSE(server.needs_resync(id));
    set.begin_round();
  }
  EXPECT_EQ(server.rounds_completed(id), 3u);
}

TEST(InventoryServer, UtrpDeadlineMissRaisesAlert) {
  rfid::util::Rng rng(5);
  InventoryServer server;
  TagSet set = TagSet::make_random(150, rng);
  const GroupId id = server.enroll(set, utrp_config("cage", 5));
  const rfid::protocol::UtrpReader reader;
  const auto challenge = server.challenge_utrp(id, rng);
  const auto scan = reader.scan(set.tags(), challenge);
  const auto verdict = server.submit_utrp(id, challenge, scan.bitstring,
                                          /*deadline_met=*/false);
  EXPECT_FALSE(verdict.intact);
  ASSERT_EQ(server.alerts().size(), 1u);
  EXPECT_TRUE(server.alerts().front().deadline_missed);
}

TEST(InventoryServer, ProtocolMismatchRejected) {
  rfid::util::Rng rng(6);
  InventoryServer server;
  const TagSet set = TagSet::make_random(40, rng);
  const GroupId trp_id = server.enroll(set, trp_config("a", 2));
  const GroupId utrp_id = server.enroll(set, utrp_config("b", 2));
  EXPECT_THROW((void)server.challenge_utrp(trp_id, rng), std::invalid_argument);
  EXPECT_THROW((void)server.challenge_trp(utrp_id, rng), std::invalid_argument);
}

TEST(InventoryServer, UnknownGroupRejected) {
  InventoryServer server;
  EXPECT_THROW((void)server.group_size(GroupId{0}), std::invalid_argument);
}

TEST(InventoryServer, EmptyEnrollmentRejected) {
  InventoryServer server;
  EXPECT_THROW((void)server.enroll(TagSet{}, trp_config("x", 0)),
               std::invalid_argument);
}

TEST(InventoryServer, GroupsAreIndependent) {
  // A theft in one group must not affect another group's verdicts.
  rfid::util::Rng rng(7);
  InventoryServer server;
  TagSet a = TagSet::make_random(200, rng);
  TagSet b = TagSet::make_random(200, rng);
  const GroupId ga = server.enroll(a, trp_config("a", 2));
  const GroupId gb = server.enroll(b, trp_config("b", 2));
  (void)a.steal_random(100, rng);

  const rfid::protocol::TrpReader reader;
  const auto ca = server.challenge_trp(ga, rng);
  EXPECT_FALSE(server.submit_trp(ga, ca, reader.scan(a.tags(), ca, rng)).intact);
  const auto cb = server.challenge_trp(gb, rng);
  EXPECT_TRUE(server.submit_trp(gb, cb, reader.scan(b.tags(), cb, rng)).intact);
  EXPECT_EQ(server.alerts().size(), 1u);
  EXPECT_EQ(server.alerts().front().group_name, "a");
}

TEST(InventoryServer, DifferentPoliciesGiveDifferentFrames) {
  // The flexibility claim: same set size, different (m, alpha) => different
  // challenge sizes.
  rfid::util::Rng rng(8);
  InventoryServer server;
  const TagSet set = TagSet::make_random(500, rng);
  const GroupId strict = server.enroll(set, trp_config("strict", 0, 0.99));
  const GroupId loose = server.enroll(set, trp_config("loose", 30, 0.9));
  EXPECT_GT(server.frame_size(strict), server.frame_size(loose));
}

TEST(InventoryServer, ResyncHealsDivergedMirrorAndLogsRecovery) {
  // Full incident timeline: a rogue scan diverges the counters, the next
  // round alerts and trips needs_resync, a resync from a fresh audit heals
  // the mirror, and subsequent rounds verify clean. The alert log records
  // both the failure and the recovery, in order.
  rfid::util::Rng rng(9);
  InventoryServer server;
  TagSet set = TagSet::make_random(200, rng);
  const GroupId id = server.enroll(set, utrp_config("vault", 2));
  const rfid::protocol::UtrpReader reader;

  // Rogue reader advances real counters behind the server's back.
  {
    rfid::util::Rng rogue_rng(99);
    rfid::protocol::UtrpChallenge rogue;
    rogue.frame_size = server.frame_size(id);
    for (std::uint32_t i = 0; i < rogue.frame_size; ++i) {
      rogue.seeds.push_back(rogue_rng());
    }
    (void)rfid::protocol::utrp_scan(set.tags(), rfid::hash::SlotHasher{}, rogue);
    set.begin_round();
  }

  const auto c1 = server.challenge_utrp(id, rng);
  const auto v1 =
      server.submit_utrp(id, c1, reader.scan(set.tags(), c1).bitstring, true);
  EXPECT_FALSE(v1.intact);
  ASSERT_TRUE(server.needs_resync(id));
  ASSERT_EQ(server.alerts().size(), 1u);
  EXPECT_EQ(server.alerts()[0].kind, rfid::server::AlertKind::kRoundFailure);
  set.begin_round();

  // Recovery path: a fresh physical audit, resynced through the snapshot
  // helper (as an operator restoring from an audit file would).
  const rfid::server::EnrolledGroup audit{server.config(id), set};
  rfid::server::resync_from_snapshot(server, id, audit);
  EXPECT_FALSE(server.needs_resync(id));
  ASSERT_EQ(server.alerts().size(), 2u);
  EXPECT_EQ(server.alerts()[1].kind, rfid::server::AlertKind::kResync);
  EXPECT_EQ(server.alerts()[1].group_name, "vault");

  for (int round = 0; round < 2; ++round) {
    const auto c = server.challenge_utrp(id, rng);
    const auto v =
        server.submit_utrp(id, c, reader.scan(set.tags(), c).bitstring, true);
    EXPECT_TRUE(v.intact) << "post-resync round " << round;
    set.begin_round();
  }
  EXPECT_FALSE(server.needs_resync(id));
  EXPECT_EQ(server.alerts().size(), 2u);  // no new alerts after recovery
}

TEST(InventoryServer, ResyncRejectsWrongTargets) {
  rfid::util::Rng rng(10);
  InventoryServer server;
  TagSet trp_set = TagSet::make_random(50, rng);
  TagSet utrp_set = TagSet::make_random(50, rng);
  const GroupId trp_id = server.enroll(trp_set, trp_config("shelf", 2));
  const GroupId utrp_id = server.enroll(utrp_set, utrp_config("cage", 2));

  // TRP groups have no mirror.
  EXPECT_THROW(server.resync(trp_id, trp_set), std::invalid_argument);
  EXPECT_THROW((void)server.utrp_mirror(trp_id), std::invalid_argument);

  // Snapshot-group validation: name and size must match the live group.
  rfid::server::EnrolledGroup wrong_name{utrp_config("wrong", 2), utrp_set};
  EXPECT_THROW(rfid::server::resync_from_snapshot(server, utrp_id, wrong_name),
               std::invalid_argument);
  rfid::server::EnrolledGroup wrong_size{utrp_config("cage", 2),
                                         TagSet::make_random(10, rng)};
  EXPECT_THROW(rfid::server::resync_from_snapshot(server, utrp_id, wrong_size),
               std::invalid_argument);
}

TEST(InventoryServer, AlertSequencesAreMonotonicAcrossGroups) {
  // Alerts carry a server-wide monotone sequence number so the incident
  // timeline stays totally ordered even interleaved across groups — and
  // stays stable through persistence (the storage tests round-trip it).
  rfid::util::Rng rng(12);
  InventoryServer server;
  TagSet shelf = TagSet::make_random(200, rng);
  TagSet cage = TagSet::make_random(100, rng);
  const GroupId g0 = server.enroll(shelf, trp_config("shelf", 1));
  const GroupId g1 = server.enroll(cage, utrp_config("cage", 1));
  const rfid::protocol::TrpReader trp_reader;
  const rfid::protocol::UtrpReader utrp_reader;

  // Interleave failures: TRP theft, UTRP deadline miss, resync, TRP theft.
  TagSet looted = shelf;
  (void)looted.steal_random(60, rng);
  const auto c1 = server.challenge_trp(g0, rng);
  (void)server.submit_trp(g0, c1, trp_reader.scan(looted.tags(), c1, rng));
  const auto c2 = server.challenge_utrp(g1, rng);
  (void)server.submit_utrp(g1, c2, utrp_reader.scan(cage.tags(), c2).bitstring,
                           /*deadline_met=*/false);
  cage.begin_round();
  server.resync(g1, cage);
  const auto c3 = server.challenge_trp(g0, rng);
  (void)server.submit_trp(g0, c3, trp_reader.scan(looted.tags(), c3, rng));

  const auto& alerts = server.alerts();
  ASSERT_GE(alerts.size(), 4u);
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    EXPECT_EQ(alerts[i].sequence, i) << "alert " << i;
    if (i > 0) {
      EXPECT_LT(alerts[i - 1].sequence, alerts[i].sequence);
    }
  }
}

TEST(InventoryServer, UtrpMirrorTracksCommittedCounters) {
  rfid::util::Rng rng(11);
  InventoryServer server;
  TagSet set = TagSet::make_random(100, rng);
  const GroupId id = server.enroll(set, utrp_config("cage", 3));
  const rfid::protocol::UtrpReader reader;

  const auto c = server.challenge_utrp(id, rng);
  (void)server.submit_utrp(id, c, reader.scan(set.tags(), c).bitstring, true);
  set.begin_round();

  // After an intact committed round the mirror's counters equal the real
  // tags' counters, id by id.
  const TagSet mirror = server.utrp_mirror(id);
  ASSERT_EQ(mirror.size(), set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(mirror.at(i).id(), set.at(i).id());
    EXPECT_EQ(mirror.at(i).counter(), set.at(i).counter());
  }
}

// -------------------------------------------------- group lifecycle ----

TEST(InventoryServer, ReEnrollReplacesMembershipInPlace) {
  rfid::util::Rng rng(20);
  InventoryServer server;
  TagSet original = TagSet::make_random(100, rng);
  const GroupId id = server.enroll(original, trp_config("aisle", 2));

  // Complete one round, then re-enroll with a fresh (smaller) audit.
  const rfid::protocol::TrpReader reader;
  const auto c1 = server.challenge_trp(id, rng);
  EXPECT_TRUE(
      server.submit_trp(id, c1, reader.scan(original.tags(), c1, rng)).intact);
  EXPECT_EQ(server.rounds_completed(id), 1u);

  TagSet replaced = TagSet::make_random(60, rng);
  server.re_enroll(id, replaced, trp_config("aisle-v2", 1));
  EXPECT_EQ(server.group_count(), 1u);  // same identity, no new group
  EXPECT_EQ(server.group_size(id), 60u);
  EXPECT_EQ(server.config(id).name, "aisle-v2");
  EXPECT_EQ(server.rounds_completed(id), 0u);  // the new engine starts fresh

  // The replaced membership is what rounds verify against now.
  const auto c2 = server.challenge_trp(id, rng);
  EXPECT_TRUE(
      server.submit_trp(id, c2, reader.scan(replaced.tags(), c2, rng)).intact);
}

TEST(InventoryServer, DecommissionTombstonesWithoutShiftingIds) {
  rfid::util::Rng rng(21);
  InventoryServer server;
  const TagSet a = TagSet::make_random(50, rng);
  const TagSet b = TagSet::make_random(50, rng);
  const GroupId ga = server.enroll(a, trp_config("a", 1));
  const GroupId gb = server.enroll(b, trp_config("b", 1));

  server.decommission(ga);
  EXPECT_FALSE(server.active(ga));
  EXPECT_TRUE(server.active(gb));
  EXPECT_EQ(server.group_count(), 2u);  // the index space never shrinks
  EXPECT_THROW((void)server.challenge_trp(ga, rng), std::invalid_argument);
  EXPECT_THROW(server.decommission(ga), std::invalid_argument);  // once only

  // The live group is untouched by its neighbor's tombstone.
  const rfid::protocol::TrpReader reader;
  const auto cb = server.challenge_trp(gb, rng);
  EXPECT_TRUE(server.submit_trp(gb, cb, reader.scan(b.tags(), cb, rng)).intact);

  // Re-enrollment reactivates the tombstone in place.
  const TagSet fresh = TagSet::make_random(40, rng);
  server.re_enroll(ga, fresh, trp_config("a-v2", 1));
  EXPECT_TRUE(server.active(ga));
  const auto ca = server.challenge_trp(ga, rng);
  EXPECT_TRUE(
      server.submit_trp(ga, ca, reader.scan(fresh.tags(), ca, rng)).intact);
}

TEST(InventoryServer, ExpectedCacheServesRepeatsAndDropsOnReEnroll) {
  rfid::util::Rng rng(31);
  InventoryServer server;
  const TagSet a = TagSet::make_random(80, rng);
  const GroupId g = server.enroll(a, trp_config("cached", 2));
  EXPECT_EQ(server.expected_cache_entries(), 0u);

  const rfid::protocol::TrpReader reader;
  const auto c = server.challenge_trp(g, rng);
  EXPECT_TRUE(server.submit_trp(g, c, reader.scan(a.tags(), c, rng)).intact);
  EXPECT_EQ(server.expected_cache_entries(), 1u);
  // Replaying the same challenge hits the cache; a fresh one adds an entry.
  EXPECT_TRUE(server.submit_trp(g, c, reader.scan(a.tags(), c, rng)).intact);
  EXPECT_EQ(server.expected_cache_entries(), 1u);
  const auto c2 = server.challenge_trp(g, rng);
  EXPECT_TRUE(server.submit_trp(g, c2, reader.scan(a.tags(), c2, rng)).intact);
  EXPECT_EQ(server.expected_cache_entries(), 2u);

  // Re-enroll with DIFFERENT membership, then replay the pinned challenge:
  // a stale cached expectation (computed from the old membership) would
  // alarm against the new group's honest scan.
  const TagSet fresh = TagSet::make_random(80, rng);
  server.re_enroll(g, fresh, trp_config("cached-v2", 2));
  EXPECT_EQ(server.expected_cache_entries(), 0u);
  EXPECT_TRUE(server.submit_trp(g, c, reader.scan(fresh.tags(), c, rng)).intact);
}

TEST(InventoryServer, ExpectedCacheInvalidatesPerGroupOnDecommission) {
  rfid::util::Rng rng(32);
  InventoryServer server;
  const TagSet a = TagSet::make_random(50, rng);
  const TagSet b = TagSet::make_random(50, rng);
  const GroupId ga = server.enroll(a, trp_config("going", 1));
  const GroupId gb = server.enroll(b, trp_config("staying", 1));

  const rfid::protocol::TrpReader reader;
  const auto ca = server.challenge_trp(ga, rng);
  const auto cb = server.challenge_trp(gb, rng);
  (void)server.submit_trp(ga, ca, reader.scan(a.tags(), ca, rng));
  (void)server.submit_trp(gb, cb, reader.scan(b.tags(), cb, rng));
  EXPECT_EQ(server.expected_cache_entries(), 2u);

  // Tombstoning drops ONLY the decommissioned group's entries; its
  // neighbor's cached expectation keeps serving repeats.
  server.decommission(ga);
  EXPECT_EQ(server.expected_cache_entries(), 1u);
  EXPECT_TRUE(server.submit_trp(gb, cb, reader.scan(b.tags(), cb, rng)).intact);
}

TEST(InventoryServer, ExpectedCacheEmptyAfterResyncAndSnapshotLoad) {
  rfid::util::Rng rng(33);
  InventoryServer server;
  const TagSet trp_tags = TagSet::make_random(60, rng);
  TagSet utrp_tags = TagSet::make_random(60, rng);
  const GroupId gt = server.enroll(trp_tags, trp_config("shelf", 1));
  const GroupId gu = server.enroll(utrp_tags, utrp_config("cage", 1));

  const rfid::protocol::TrpReader reader;
  const auto c = server.challenge_trp(gt, rng);
  (void)server.submit_trp(gt, c, reader.scan(trp_tags.tags(), c, rng));
  EXPECT_EQ(server.expected_cache_entries(), 1u);

  // Resync rebuilds the UTRP mirror; the TRP group's cache entry is
  // untouched (the invalidation is keyed by group).
  server.resync(gu, utrp_tags);
  EXPECT_EQ(server.expected_cache_entries(), 1u);

  // A server rebuilt from persistence starts with a cold cache and still
  // verifies the pinned challenge correctly from scratch.
  const std::string dump = rfid::storage::dump_state(server);
  std::istringstream is(dump);
  InventoryServer rebuilt =
      rfid::storage::build_server(rfid::storage::read_state(is));
  EXPECT_EQ(rebuilt.expected_cache_entries(), 0u);
  rfid::util::Rng rng2(34);
  EXPECT_TRUE(
      rebuilt.submit_trp(gt, c, reader.scan(trp_tags.tags(), c, rng2)).intact);
  EXPECT_EQ(rebuilt.expected_cache_entries(), 1u);
}

TEST(InventoryServer, ActiveFlagSurvivesPersistenceRoundTrip) {
  rfid::util::Rng rng(22);
  InventoryServer server;
  const TagSet a = TagSet::make_random(40, rng);
  const TagSet b = TagSet::make_random(40, rng);
  const GroupId ga = server.enroll(a, trp_config("kept", 1));
  const GroupId gb = server.enroll(b, trp_config("retired", 1));
  server.decommission(gb);

  const std::string dump = rfid::storage::dump_state(server);
  std::istringstream is(dump);
  const InventoryServer rebuilt =
      rfid::storage::build_server(rfid::storage::read_state(is));
  EXPECT_TRUE(rebuilt.active(ga));
  EXPECT_FALSE(rebuilt.active(gb));
  EXPECT_EQ(rfid::storage::dump_state(rebuilt), dump);
}

}  // namespace
