// TagSet: the paper's T* — a static population of n uniquely-identified tags.
//
// The factory guarantees unique IDs (random 96-bit EPCs with collision
// re-draw). steal_random() models the adversary physically removing tags:
// it partitions the set into (remaining, stolen) without changing tag state,
// matching the paper's assumption that stolen tags are out of reader range
// but otherwise intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tag/tag.h"
#include "util/random.h"

namespace rfid::util {
class Decoder;
class Encoder;
}  // namespace rfid::util

namespace rfid::tag {

class TagSet {
 public:
  TagSet() = default;
  explicit TagSet(std::vector<Tag> tags) : tags_(std::move(tags)) {}

  /// Creates `count` tags with unique random 96-bit IDs drawn from `rng`.
  [[nodiscard]] static TagSet make_random(std::size_t count, util::Rng& rng);

  [[nodiscard]] std::size_t size() const noexcept { return tags_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tags_.empty(); }

  [[nodiscard]] std::span<Tag> tags() noexcept { return tags_; }
  [[nodiscard]] std::span<const Tag> tags() const noexcept { return tags_; }

  [[nodiscard]] const Tag& at(std::size_t i) const;
  [[nodiscard]] Tag& at(std::size_t i);

  /// All IDs, in set order (what the server records at enrollment time).
  [[nodiscard]] std::vector<TagId> ids() const;

  /// Removes `count` uniformly-random tags and returns them as a new set
  /// (the adversary's loot). Requires count <= size().
  [[nodiscard]] TagSet steal_random(std::size_t count, util::Rng& rng);

  /// Clears every tag's silenced flag (start of a new inventory round).
  void begin_round() noexcept;

 private:
  std::vector<Tag> tags_;
};

/// Codec layout (util/codec.h), the server journal's record of a population:
/// a u64 count, then per tag its TagId and its u64 counter.
void put(util::Encoder& out, const TagSet& tags);
void get(util::Decoder& in, TagSet& tags);

}  // namespace rfid::tag
