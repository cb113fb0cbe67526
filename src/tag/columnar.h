// ColumnarTagSet: the server's tag representation — the struct-of-arrays
// twin of tag::TagSet — plus the bulk kernels that make million-tag
// populations practical.
//
// The object model (tag::Tag) is the right shape for the paper's per-tag
// state machine, and it stays the model of physical tags (readers, attacks,
// wire sessions, identification). But its hot loops — computing
// h(id ⊕ r) mod f over a whole population, advancing UTRP counters on a
// re-seed, scattering slot picks into a frame bitstring — pay a 32-byte
// stride, a per-call hash-kind switch, and a non-inlined Bitstring::set per
// tag. At the ROADMAP's million-tag target that overhead dominates the
// actual hashing, so every server-side database (TRP enrollment, the UTRP
// counter mirror, the fleet's per-zone state) is held in this form, and
// every UTRP walk — a reader's over its Tag objects included — runs on the
// live-tag columns of UtrpLiveTags below.
//
// ColumnarTagSet stores the same state as contiguous columns:
//   * ids        — the full 96-bit TagIds (identity; round-trip fidelity),
//   * slot_words — TagId::slot_word() precomputed once (the only per-tag
//                  input the slot hash consumes),
//   * counters   — the UTRP monotone query counters,
//   * silenced   — a packed 64-tags-per-word bitmap ("replied this round").
//
// The bulk kernels below hoist the hash-kind dispatch out of the loop
// (one switch per call, not per tag), stream the 8-byte slot_word column,
// and accumulate frame bitstrings with branchless 64-bit word ORs. They are
// exact drop-ins: every kernel computes bit-identical results to the per-tag
// Tag::trp_slot / Tag::utrp_receive_seed / Bitstring::set paths — pinned by
// tests/columnar_test.cpp (element-wise equivalence),
// tests/utrp_reference_test.cpp (every UTRP walk against a slot-by-slot
// oracle, and the reader's lossy-channel walk against the frozen per-tag
// walk in tests/per_tag_utrp_walk.h) and tests/columnar_diff_test.cpp
// (the server engines against a per-tag oracle).
//
// Conversion is lossless both ways: TagSet -> ColumnarTagSet -> TagSet
// preserves ids, counters, and silenced flags for any population.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bitstring/bitstring.h"
#include "hash/slot_hash.h"
#include "tag/tag.h"
#include "tag/tag_id.h"
#include "tag/tag_set.h"

namespace rfid::tag {

class ColumnarTagSet {
 public:
  ColumnarTagSet() = default;

  /// Columnarizes `tags` (state copied: ids, counters, silenced flags).
  [[nodiscard]] static ColumnarTagSet from_tags(std::span<const Tag> tags);
  [[nodiscard]] static ColumnarTagSet from_tag_set(const TagSet& set) {
    return from_tags(set.tags());
  }
  /// Fresh tags at counter 0, not silenced (a TRP enrollment: counters are
  /// not protocol state there).
  [[nodiscard]] static ColumnarTagSet from_ids(std::span<const TagId> ids);

  /// Materializes the row-oriented twin (ids, counters, silenced preserved).
  [[nodiscard]] TagSet to_tag_set() const;

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }

  [[nodiscard]] std::span<const TagId> ids() const noexcept { return ids_; }
  [[nodiscard]] std::span<const std::uint64_t> slot_words() const noexcept {
    return slot_words_;
  }
  [[nodiscard]] std::span<const std::uint64_t> counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::span<std::uint64_t> counters() noexcept {
    return counters_;
  }
  /// The packed silenced bitmap, tag i at word i/64, bit i%64. Words beyond
  /// the last tag are kept zero (an invariant bulk kernels rely on).
  [[nodiscard]] std::span<const std::uint64_t> silenced_words() const noexcept {
    return silenced_;
  }

  [[nodiscard]] TagId id(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] std::uint64_t counter(std::size_t i) const {
    return counters_[i];
  }
  [[nodiscard]] bool silenced(std::size_t i) const {
    return (silenced_[i / 64] >> (i % 64)) & 1U;
  }
  /// Tag i as a per-tag object (id, counter, silenced flag).
  [[nodiscard]] Tag tag(std::size_t i) const;

  void silence(std::size_t i) { silenced_[i / 64] |= std::uint64_t{1} << (i % 64); }

  /// New inventory round: clears every silenced flag, counters persist —
  /// the columnar mirror of TagSet::begin_round().
  void begin_round() noexcept {
    for (auto& w : silenced_) w = 0;
  }

  /// What a UTRP walk in place changes: the counters and the silenced
  /// bitmap (ids and slot words never change). Saved before a walk, it
  /// lets restore() undo the walk bit for bit.
  struct WalkState {
    std::vector<std::uint64_t> counters;
    std::vector<std::uint64_t> silenced;
  };
  [[nodiscard]] WalkState walk_state() const { return {counters_, silenced_}; }
  /// Puts back a state that walk_state() saved from this set.
  void restore(WalkState state);

 private:
  std::vector<TagId> ids_;
  std::vector<std::uint64_t> slot_words_;  // ids_[i].slot_word(), cached
  std::vector<std::uint64_t> counters_;
  std::vector<std::uint64_t> silenced_;    // packed, 64 tags per word
};

// ------------------------------------------------------------ kernels ----
//
// All kernels are deterministic, allocation-free on their hot path, and
// bit-identical to the scalar reference (same hash, same multiply-shift
// range reduction). frame_size must be >= 1.

/// TRP slot choice for a whole population:  out[i] = h(slot_words[i] ⊕ r)
/// mod frame_size — the bulk twin of Tag::trp_slot. `out.size()` must equal
/// `slot_words.size()`.
void bulk_trp_slots(const hash::SlotHasher& hasher,
                    std::span<const std::uint64_t> slot_words, std::uint64_t r,
                    std::uint32_t frame_size, std::span<std::uint32_t> out);

/// The tags of one UTRP frame walk (Algs. 6–7) that have not replied yet,
/// held as compact working columns: each live tag's slot word, counter,
/// last pick and position in the set the walk started from. Every UTRP walk
/// runs on it — the reader's scan of physical tags (protocol::utrp_scan),
/// the server's mirror walks (protocol::utrp_scan_columnar and
/// UtrpServer::expected_bitstring) and the split attack's two halves —
/// driving one receive_seed() and one reply() per reply slot.
///
/// A walk in place writes each replying tag's counter back to the set it
/// walks, and silences it there, so that set ends as a real scan leaves
/// it; that set must outlive the live set. A walk over a const
/// ColumnarTagSet only predicts and copies no ids.
/// The order of the live set does not matter: the minimum pick and the set
/// of tags at it do not depend on it.
///
/// The per-pass kernel is chosen once, at construction, by CPU and hash
/// kind: AVX-512F/DQ lanes for murmur and FNV where the CPU has them, the
/// scalar loop (hash dispatch hoisted) otherwise and always for SipHash.
class UtrpLiveTags {
 public:
  /// Every tag of `tags` is live, at its current counter. `tags` is only
  /// read: a walk over it predicts a bitstring and leaves no trace.
  UtrpLiveTags(const hash::SlotHasher& hasher, const ColumnarTagSet& tags);
  /// A walk in place over `*tags`: a new round begins there (every silenced
  /// flag clears) and every tag is live, at its current counter.
  UtrpLiveTags(const hash::SlotHasher& hasher, ColumnarTagSet* tags);
  /// A walk in place over per-tag state (the physical tags a reader
  /// scans): every tag begins a new round and is live, at its counter.
  UtrpLiveTags(const hash::SlotHasher& hasher, std::span<Tag> tags);

  UtrpLiveTags(const UtrpLiveTags&) = delete;
  UtrpLiveTags& operator=(const UtrpLiveTags&) = delete;
  /// A walk in place cut short (an attack whose collaborator stopped, a
  /// challenge with too few seeds) writes the counter of every tag still
  /// live back, so each tag keeps every seed it received.
  ~UtrpLiveTags();

  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// One (f, r) reception by every live tag, in one pass: increments its
  /// counter and picks  h(slot_word ⊕ r ⊕ ct) mod frame_size  (the bulk
  /// twin of Tag::utrp_receive_seed). Returns the smallest pick, or
  /// UINT32_MAX when no tag is live.
  std::uint32_t receive_seed(std::uint64_t r, std::uint32_t frame_size);

  /// The smallest last pick among the live tags, or UINT32_MAX when none
  /// is live: the next reply event after a reply the reader did not see
  /// (no re-seed follows it).
  [[nodiscard]] std::uint32_t min_pick() const noexcept;

  /// The live tags whose last pick is `slot` reply and keep silent: they
  /// leave the live set, and a walk in place writes each one's counter
  /// back and silences it there. The others keep their picks. Returns
  /// how many replied.
  std::size_t reply(std::uint32_t slot);

 private:
  using Pass = std::uint32_t (*)(const std::uint64_t* words,
                                 std::uint64_t* counters, std::size_t n,
                                 std::uint64_t r, std::uint32_t frame_size,
                                 std::uint32_t* picks);
  using Find = void (*)(const std::uint32_t* picks, std::size_t n,
                        std::uint32_t slot, std::vector<std::size_t>& hits);

  /// Live tags are positions [0, n) of the working columns.
  UtrpLiveTags(const hash::SlotHasher& hasher, std::size_t n);
  /// Writes live position j's counter back to the set walked in place,
  /// silencing it there when it `replied`; nothing for a prediction.
  void write_back(std::size_t j, bool replied) noexcept;

  hash::SlotHasher hasher_;
  Pass pass_ = nullptr;   // vector kernel, or null for the scalar loop
  Find find_ = nullptr;   // vector compare, or null for the scalar loop
  ColumnarTagSet* columns_ = nullptr;  // walked in place, if columnar
  std::span<Tag> tags_;                // walked in place, if per-tag
  std::size_t live_ = 0;  // the live tags are positions [0, live_)
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> counters_;
  std::vector<std::size_t> index_;    // position in the walked set
  std::vector<std::uint32_t> picks_;  // last pick of each live tag
  std::vector<std::size_t> hits_;     // reply() scratch
};

/// Fused hash + scatter: the bitstring an intact population produces for a
/// TRP challenge (f, r), without materializing the slot array. This is the
/// server-side expected-bitstring hot path at bulk scale.
[[nodiscard]] bits::Bitstring bulk_trp_frame(
    const hash::SlotHasher& hasher, std::span<const std::uint64_t> slot_words,
    std::uint64_t r, std::uint32_t frame_size);

}  // namespace rfid::tag
