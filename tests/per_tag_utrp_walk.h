// The per-tag UTRP walk, frozen as a test-side oracle.
//
// This is the loop protocol::utrp_scan ran before every UTRP walk moved
// onto the live-tag columns (tag::UtrpLiveTags): one tag::Tag call per
// reception, an active index list that std::erase_if shrinks at each
// reply slot, and the lossy-channel branch (an unobserved reply silences
// its tags but triggers no re-seed). It is kept here unchanged, so a test
// that checks the production walk against it compares two independent
// implementations rather than the shared kernel with itself.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "bitstring/bitstring.h"
#include "hash/slot_hash.h"
#include "protocol/messages.h"
#include "protocol/utrp.h"
#include "radio/channel.h"
#include "radio/slot.h"
#include "tag/tag.h"
#include "util/expect.h"
#include "util/random.h"

namespace rfid::test {

using protocol::UtrpChallenge;
using protocol::UtrpScanResult;

/// Algs. 6 + 7 over per-tag state, mutating counters and silenced flags in
/// place. `channel`/`rng` may be null for the ideal channel.
inline UtrpScanResult per_tag_utrp_walk(std::span<tag::Tag> tags,
                                        const hash::SlotHasher& hasher,
                                        const UtrpChallenge& challenge,
                                        const radio::ChannelModel* channel,
                                        util::Rng* rng) {
  const std::uint32_t f = challenge.frame_size;
  RFID_EXPECT(f >= 1, "challenge has no slots");
  RFID_EXPECT(challenge.seeds.size() >= 1, "challenge has no seeds");

  UtrpScanResult result;
  result.bitstring = bits::Bitstring(f);

  // Initial broadcast (Alg. 5 line 2): every tag increments its counter and
  // picks a slot within the full frame.
  std::vector<std::size_t> active;
  std::vector<std::uint32_t> pick(tags.size(), 0);
  active.reserve(tags.size());
  for (std::size_t i = 0; i < tags.size(); ++i) {
    tags[i].begin_round();
    pick[i] = tags[i].utrp_receive_seed(hasher, challenge.seeds[0], f);
    active.push_back(i);
  }
  result.seeds_consumed = 1;

  result.slots_hashed = tags.size();

  std::uint32_t subframe_start = 0;  // global slot where the current sub-frame begins

  while (!active.empty()) {
    // Between re-seeds every slot before the earliest pick is empty, so jump
    // straight to the next reply event: the minimum pick in the sub-frame.
    std::uint32_t min_pick = std::numeric_limits<std::uint32_t>::max();
    for (const std::size_t i : active) min_pick = std::min(min_pick, pick[i]);

    const std::uint32_t global = subframe_start + min_pick;
    RFID_ENSURE(global < f, "tag picked a slot beyond the frame");

    // All tags that chose this slot transmit and keep silent afterwards
    // (Alg. 7 line 5) — whether or not the reader decodes anything.
    std::uint32_t occupancy = 0;
    std::erase_if(active, [&](std::size_t i) {
      if (pick[i] != min_pick) return false;
      tags[i].silence();
      ++occupancy;
      return true;
    });
    result.replies += occupancy;

    const radio::SlotOutcome outcome =
        channel == nullptr
            ? (occupancy >= 2 ? radio::SlotOutcome::kCollision
                              : radio::SlotOutcome::kSingle)
            : radio::resolve_slot(occupancy, *channel, *rng);
    if (!radio::occupied(outcome)) continue;  // replies lost: reader saw nothing

    result.bitstring.set(global);

    // Re-seed (Alg. 6 lines 6–7): the remainder of the frame becomes a new
    // sub-frame of f' = f − (global+1) slots under the next server seed.
    if (global + 1 >= f) break;  // reply in the last slot: frame over
    ++result.reseeds;
    RFID_ENSURE(result.seeds_consumed < challenge.seeds.size(),
                "server issued too few seeds for this frame");
    const std::uint64_t seed = challenge.seeds[result.seeds_consumed++];
    const std::uint32_t sub_frame = f - (global + 1);
    subframe_start = global + 1;
    for (const std::size_t i : active) {
      pick[i] = tags[i].utrp_receive_seed(hasher, seed, sub_frame);
    }
    result.slots_hashed += active.size();
  }
  return result;
}

}  // namespace rfid::test
