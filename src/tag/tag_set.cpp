#include "tag/tag_set.h"

#include <unordered_set>

#include "util/codec.h"
#include "util/expect.h"

namespace rfid::tag {

TagSet TagSet::make_random(std::size_t count, util::Rng& rng) {
  std::vector<Tag> tags;
  tags.reserve(count);
  std::unordered_set<std::uint64_t> seen_words;
  seen_words.reserve(count * 2);
  while (tags.size() < count) {
    const TagId id(static_cast<std::uint32_t>(rng() >> 32), rng());
    // Uniqueness is enforced on the folded slot word (what the protocols
    // hash): two tags with equal words would be protocol-indistinguishable.
    if (seen_words.insert(id.slot_word()).second) {
      tags.emplace_back(id);
    }
  }
  return TagSet(std::move(tags));
}

const Tag& TagSet::at(std::size_t i) const {
  RFID_EXPECT(i < tags_.size(), "tag index out of range");
  return tags_[i];
}

Tag& TagSet::at(std::size_t i) {
  RFID_EXPECT(i < tags_.size(), "tag index out of range");
  return tags_[i];
}

std::vector<TagId> TagSet::ids() const {
  std::vector<TagId> out;
  out.reserve(tags_.size());
  for (const Tag& t : tags_) out.push_back(t.id());
  return out;
}

TagSet TagSet::steal_random(std::size_t count, util::Rng& rng) {
  RFID_EXPECT(count <= tags_.size(), "cannot steal more tags than exist");
  // Partial Fisher–Yates: move a random remaining tag to the back, `count`
  // times; the suffix becomes the stolen set.
  std::vector<Tag> stolen;
  stolen.reserve(count);
  std::size_t remaining = tags_.size();
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t pick = static_cast<std::size_t>(rng.below(remaining));
    std::swap(tags_[pick], tags_[remaining - 1]);
    stolen.push_back(tags_[remaining - 1]);
    --remaining;
  }
  tags_.resize(remaining);
  return TagSet(std::move(stolen));
}

void TagSet::begin_round() noexcept {
  for (Tag& t : tags_) t.begin_round();
}

void put(util::Encoder& out, const TagSet& tags) {
  out.put_u64(tags.size());
  for (const Tag& t : tags.tags()) {
    util::put(out, t.id());
    out.put_u64(t.counter());
  }
}

void get(util::Decoder& in, TagSet& tags) {
  const std::size_t count =
      in.get_count<std::uint64_t>(util::min_size<TagId>() + 8);
  std::vector<Tag> parsed;
  parsed.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TagId id;
    util::get(in, id);
    parsed.emplace_back(id, in.get_u64());
  }
  tags = TagSet(std::move(parsed));
}

}  // namespace rfid::tag
