#include "protocol/utrp.h"

#include <utility>

#include "obs/catalog.h"
#include "util/expect.h"

namespace rfid::protocol {

namespace {

/// The one UTRP frame walk: every scan, prediction and round step runs it.
/// `tags` is what the tag::UtrpLiveTags is built over: a Tag span or a
/// ColumnarTagSet* walked in place, or a const ColumnarTagSet that a
/// prediction only reads. `channel`/`rng` may be null for the ideal
/// channel.
template <class Tags>
UtrpScanResult walk(const Tags& tags, const hash::SlotHasher& hasher,
                    const UtrpChallenge& challenge,
                    const radio::ChannelModel* channel, util::Rng* rng) {
  const std::uint32_t f = challenge.frame_size;
  RFID_EXPECT(f >= 1, "challenge has no slots");
  RFID_EXPECT(challenge.seeds.size() >= 1, "challenge has no seeds");

  UtrpScanResult result;
  result.bitstring = bits::Bitstring(f);

  // Initial broadcast (Alg. 5 line 2): a new round begins, and every tag
  // increments its counter and picks a slot within the full frame.
  tag::UtrpLiveTags live(hasher, tags);
  std::uint32_t min_pick = live.receive_seed(challenge.seeds[0], f);
  result.seeds_consumed = 1;
  result.slots_hashed = live.size();

  std::uint32_t subframe_start = 0;  // global slot where the current sub-frame begins

  while (!live.empty()) {
    // Between re-seeds every slot before the earliest pick is empty, so
    // jump straight to the next reply event: the minimum pick.
    const std::uint32_t global = subframe_start + min_pick;
    RFID_ENSURE(global < f, "tag picked a slot beyond the frame");

    // All tags that chose this slot transmit and keep silent afterwards
    // (Alg. 7 line 5) — whether or not the reader decodes anything.
    const std::size_t occupancy = live.reply(min_pick);
    result.replies += occupancy;

    // The ideal channel observes any occupancy (kSingle / kCollision).
    if (channel != nullptr &&
        !radio::occupied(radio::resolve_slot(
            static_cast<std::uint32_t>(occupancy), *channel, *rng))) {
      // Replies lost: the reader saw nothing and sends no re-seed, so the
      // next reply event is the next smallest pick in this sub-frame.
      min_pick = live.min_pick();
      continue;
    }

    result.bitstring.set(global);

    // Re-seed (Alg. 6 lines 6–7): the remainder of the frame becomes a new
    // sub-frame of f' = f − (global+1) slots under the next server seed.
    if (global + 1 >= f) break;  // reply in the last slot: frame over
    ++result.reseeds;
    RFID_ENSURE(result.seeds_consumed < challenge.seeds.size(),
                "server issued too few seeds for this frame");
    const std::uint64_t seed = challenge.seeds[result.seeds_consumed++];
    subframe_start = global + 1;
    min_pick = live.receive_seed(seed, f - subframe_start);
    result.slots_hashed += live.size();
  }
  return result;
}

}  // namespace

UtrpScanResult utrp_scan_columnar(tag::ColumnarTagSet& tags,
                                  const hash::SlotHasher& hasher,
                                  const UtrpChallenge& challenge) {
  return walk(&tags, hasher, challenge, nullptr, nullptr);
}

UtrpScanResult utrp_scan(std::span<tag::Tag> tags, const hash::SlotHasher& hasher,
                         const UtrpChallenge& challenge) {
  return walk(tags, hasher, challenge, nullptr, nullptr);
}

UtrpScanResult utrp_scan(std::span<tag::Tag> tags, const hash::SlotHasher& hasher,
                         const UtrpChallenge& challenge,
                         const radio::ChannelModel& channel, util::Rng& rng) {
  if (channel.ideal()) return walk(tags, hasher, challenge, nullptr, nullptr);
  return walk(tags, hasher, challenge, &channel, &rng);
}

UtrpServer::UtrpServer(const tag::TagSet& enrolled, MonitoringPolicy policy,
                       std::uint64_t comm_budget, std::uint32_t slack_slots,
                       hash::SlotHasher hasher)
    : mirror_(tag::ColumnarTagSet::from_tag_set(enrolled)),
      policy_(policy),
      comm_budget_(comm_budget),
      hasher_(hasher) {
  RFID_EXPECT(!mirror_.empty(), "cannot monitor an empty group");
  RFID_EXPECT(policy_.tolerated_missing + 1 <= mirror_.size(),
              "tolerance m must satisfy m + 1 <= n");
  plan_ = math::optimize_utrp_frame(mirror_.size(), policy_.tolerated_missing,
                                    policy_.confidence, comm_budget_,
                                    slack_slots, policy_.model);
}

UtrpServer::UtrpServer(const tag::TagSet& enrolled, MonitoringPolicy policy,
                       std::uint64_t comm_budget, const math::UtrpPlan& plan,
                       hash::SlotHasher hasher)
    : mirror_(tag::ColumnarTagSet::from_tag_set(enrolled)),
      policy_(policy),
      comm_budget_(comm_budget),
      hasher_(hasher),
      plan_(plan) {
  RFID_EXPECT(!mirror_.empty(), "cannot monitor an empty group");
  RFID_EXPECT(policy_.tolerated_missing + 1 <= mirror_.size(),
              "tolerance m must satisfy m + 1 <= n");
  RFID_EXPECT(plan_.frame_size >= 1, "injected plan has no slots");
}

void UtrpServer::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  namespace cat = obs::catalog;
  instruments_.challenges = &cat::challenges_total(*registry, "utrp");
  instruments_.rounds_intact = &cat::rounds_total(*registry, "utrp", "intact");
  instruments_.rounds_mismatch =
      &cat::rounds_total(*registry, "utrp", "mismatch");
  instruments_.rounds_deadline_missed =
      &cat::rounds_total(*registry, "utrp", "deadline_missed");
  instruments_.slots = &cat::slots_total(*registry, "utrp");
  instruments_.mismatched_slots =
      &cat::mismatched_slots_total(*registry, "utrp");
  instruments_.mirror_reseeds = &cat::reseeds_total(*registry, "mirror");
  instruments_.bulk_slots = &cat::bulk_slots_total(*registry, "utrp_seed");
  instruments_.frame_size = &cat::frame_size(*registry, "utrp");
}

UtrpChallenge UtrpServer::issue_challenge(util::Rng& rng) const {
  if (instruments_.challenges != nullptr) {
    instruments_.challenges->inc();
    instruments_.frame_size->observe(static_cast<double>(plan_.frame_size));
  }
  UtrpChallenge challenge;
  challenge.frame_size = plan_.frame_size;
  challenge.seeds.reserve(challenge.frame_size);
  for (std::uint32_t i = 0; i < challenge.frame_size; ++i) {
    challenge.seeds.push_back(rng());
  }
  return challenge;
}

bits::Bitstring UtrpServer::expected_bitstring(const UtrpChallenge& challenge) const {
  UtrpScanResult scan = walk(mirror_, hasher_, challenge, nullptr, nullptr);
  if (instruments_.bulk_slots != nullptr) {
    instruments_.bulk_slots->inc(scan.slots_hashed);
  }
  return std::move(scan.bitstring);
}

Verdict UtrpServer::verify(const UtrpChallenge& challenge,
                           const bits::Bitstring& reported,
                           bool deadline_met) const {
  return verify_against(challenge, expected_bitstring(challenge), reported,
                        deadline_met);
}

Verdict UtrpServer::commit_round(const UtrpChallenge& challenge,
                                 const bits::Bitstring& reported,
                                 bool deadline_met) {
  RFID_EXPECT(reported.size() == challenge.frame_size,
              "reported bitstring has wrong length");
  tag::ColumnarTagSet::WalkState before = mirror_.walk_state();
  UtrpScanResult scan;
  try {
    scan = utrp_scan_columnar(mirror_, hasher_, challenge);
  } catch (...) {
    // The walk's live set wrote its counters back as it unwound.
    mirror_.restore(std::move(before));
    throw;
  }
  if (instruments_.bulk_slots != nullptr) {
    instruments_.bulk_slots->inc(scan.slots_hashed);
  }
  const Verdict verdict =
      verify_against(challenge, scan.bitstring, reported, deadline_met);
  if (verdict.intact) {
    if (instruments_.mirror_reseeds != nullptr) {
      instruments_.mirror_reseeds->inc(scan.reseeds);
    }
  } else {
    // The real walk may have diverged from the expected one at the first
    // mismatch; counters beyond that point are unknowable remotely.
    mirror_.restore(std::move(before));
    needs_resync_ = true;
  }
  return verdict;
}

Verdict UtrpServer::verify_against(const UtrpChallenge& challenge,
                                   const bits::Bitstring& expected,
                                   const bits::Bitstring& reported,
                                   bool deadline_met) const {
  RFID_EXPECT(reported.size() == expected.size(),
              "reported bitstring has wrong length");
  Verdict verdict;
  verdict.deadline_met = deadline_met;
  verdict.mismatched_slots = expected.hamming_distance(reported);
  verdict.intact = deadline_met && verdict.mismatched_slots == 0;
  if (verdict.mismatched_slots != 0) {
    verdict.first_mismatch_slot = *expected.first_difference(reported);
  }
  if (instruments_.slots != nullptr) {
    instruments_.slots->inc(challenge.frame_size);
    instruments_.mismatched_slots->inc(verdict.mismatched_slots);
    if (!deadline_met) {
      instruments_.rounds_deadline_missed->inc();
    } else if (verdict.intact) {
      instruments_.rounds_intact->inc();
    } else {
      instruments_.rounds_mismatch->inc();
    }
  }
  return verdict;
}

void UtrpServer::resync(const tag::TagSet& audited) {
  RFID_EXPECT(audited.size() == mirror_.size(),
              "audit must cover the enrolled group");
  mirror_ = tag::ColumnarTagSet::from_tag_set(audited);
  needs_resync_ = false;
}

}  // namespace rfid::protocol
