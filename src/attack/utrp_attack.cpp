#include "attack/utrp_attack.h"

#include "tag/columnar.h"
#include "util/expect.h"

namespace rfid::attack {

UtrpAttackResult run_utrp_split_attack(std::span<tag::Tag> s1,
                                       std::span<tag::Tag> s2,
                                       const hash::SlotHasher& hasher,
                                       const protocol::UtrpChallenge& challenge,
                                       std::uint64_t comm_budget) {
  const std::uint32_t f = challenge.frame_size;
  RFID_EXPECT(f >= 1, "challenge has no slots");
  RFID_EXPECT(!challenge.seeds.empty(), "challenge has no seeds");

  UtrpAttackResult result;
  result.forged = bits::Bitstring(f);
  result.coordinated_slots = f;  // updated if the budget runs out mid-frame

  // Each reader walks its half in place, as an honest reader walks the
  // whole set: a new round begins and every tag receives the first seed.
  tag::UtrpLiveTags h1(hasher, s1);
  tag::UtrpLiveTags h2(hasher, s2);
  std::uint32_t m1 = h1.receive_seed(challenge.seeds[0], f);
  std::uint32_t m2 = h2.receive_seed(challenge.seeds[0], f);
  std::size_t seeds_consumed = 1;

  std::uint32_t subframe_start = 0;
  std::uint32_t local = 0;  // next local slot within the current sub-frame
  std::uint64_t budget = comm_budget;
  bool coordinating = true;

  while (subframe_start + local < f) {
    const bool r1_reply = (m1 == local);
    bool r2_reply = coordinating && (m2 == local);

    if (!r1_reply && coordinating) {
      // R1 sees an empty-of-its-own slot and must ask R2 whether to re-seed
      // (Sec. 5.4 strategy step 1). When the budget is gone, coordination
      // ends right here and R2's state becomes irrelevant to the forgery.
      if (budget == 0) {
        coordinating = false;
        result.coordinated_slots = subframe_start + local;
        r2_reply = false;
      } else {
        --budget;
        ++result.comms_used;
      }
    }

    if (r1_reply || r2_reply) {
      const std::uint32_t global = subframe_start + local;
      result.forged.set(global);
      if (r1_reply) h1.reply(local);
      if (r2_reply) h2.reply(local);

      if (global + 1 >= f) break;  // reply in the final slot
      RFID_ENSURE(seeds_consumed < challenge.seeds.size(),
                  "server issued too few seeds for this frame");
      const std::uint64_t seed = challenge.seeds[seeds_consumed++];
      const std::uint32_t sub_frame = f - (global + 1);
      subframe_start = global + 1;
      local = 0;
      m1 = h1.receive_seed(seed, sub_frame);
      if (coordinating) {
        // R2 re-seeds its half in lockstep (it learns of R1's replies over
        // the same channel; the paper charges the budget only for R1's
        // empty-slot waits, and we follow that accounting).
        m2 = h2.receive_seed(seed, sub_frame);
      }
    } else {
      ++local;
    }
  }
  return result;
}

StaticModelTrial run_utrp_static_model_attack(std::span<const tag::Tag> s1,
                                              std::span<const tag::Tag> s2,
                                              const hash::SlotHasher& hasher,
                                              std::uint32_t frame_size,
                                              std::uint64_t r,
                                              std::uint64_t comm_budget) {
  RFID_EXPECT(frame_size >= 1, "frame must have slots");
  std::vector<std::uint32_t> occupancy(frame_size, 0);
  for (const tag::Tag& t : s1) {
    ++occupancy[t.trp_slot(hasher, r, frame_size)];
  }

  StaticModelTrial trial;
  // The coordinated prefix ends one slot after R1's c-th empty slot; with no
  // budget at all there is no prefix.
  std::uint64_t empties_seen = 0;
  trial.realized_cprime = comm_budget == 0 ? 0 : frame_size;
  for (std::uint32_t slot = 0; comm_budget != 0 && slot < frame_size; ++slot) {
    if (occupancy[slot] == 0) {
      ++empties_seen;
      if (empties_seen == comm_budget) {
        trial.realized_cprime = slot + 1;
        break;
      }
    }
  }

  for (const tag::Tag& t : s2) {
    const std::uint32_t slot = t.trp_slot(hasher, r, frame_size);
    if (slot >= trial.realized_cprime) {
      ++trial.exposed_stolen;
      if (occupancy[slot] == 0) trial.detected = true;
    }
  }
  return trial;
}

}  // namespace rfid::attack
