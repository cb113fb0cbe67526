// Pluggable missing-tag IDENTIFICATION protocol family.
//
// Detection (TRP/UTRP) proves *that* tags are missing; identification names
// *which* ones — still without any tag ever transmitting its ID. Two family
// members share one seam:
//
//   * kIterative — the original, paper-faithful identifier: per round
//     a framed challenge (f, r); an expected-occupied slot observed EMPTY
//     proves its candidate mappers absent, an occupied slot with exactly one
//     possible replier proves that tag present. Proven-present tags cannot
//     be silenced, so frames stay ~n wide: O(n log n) slots — the honest
//     baseline that loses to collect-all on air time.
//
//   * kFilterFirst — the member that wins (follow-up literature: filtering
//     in arXiv 1512.05228, tree-splitting + early-breaking estimation in
//     arXiv 2308.09484). Three ideas compose:
//       1. FILTER: at the end of each round the reader broadcasts an ACK
//          bitmap of the slots whose reply proved a tag present; tags that
//          answered in an ACKed slot silence themselves for the rest of the
//          campaign. Frames then shrink with the unknowns instead of
//          staying population-sized.
//       2. ESTIMATE: the zero-estimator (src/estimate) on each frame's
//          empty count predicts how many tags still answer; the next frame
//          is sized to the estimated repliers, so a mostly-stolen zone
//          collapses to tiny frames instead of burning empty slots.
//       3. TREE-SPLIT: once few unknowns remain, ambiguous (collision)
//          slots are split in-round by a directed prefix walk
//          (protocol/tree_walk.h) that only queries prefixes covering a
//          candidate — killing the O(log n) re-framing tail.
//
// Verdict soundness on lossy channels: the channel can lose replies but
// never fabricate them, so "present" proofs (an occupied slot with a sole
// possible replier) are sound as-is. "Missing" verdicts require
// `confirmations_required` CONSECUTIVE rounds of absence evidence; any
// observation consistent with presence resets the streak. A present tag is
// falsely accused only if its reply is independently lost in C consecutive
// rounds, so P(any false accusation) <= n · max_rounds · loss^C, and C is
// derived from IdentifyConfig::accusation_error. False clearances need a
// fabricated reply and cannot happen at all. Tags still unclassified at the
// round cap are reported `unresolved`, never guessed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "hash/slot_hash.h"
#include "obs/metrics.h"
#include "radio/channel.h"
#include "radio/timing.h"
#include "tag/tag.h"
#include "tag/tag_id.h"
#include "util/random.h"

namespace rfid::protocol {

enum class IdentifyProtocolKind : std::uint8_t {
  kIterative = 0,
  kFilterFirst = 1,
};

[[nodiscard]] std::string_view to_string(IdentifyProtocolKind kind) noexcept;

struct IdentifyConfig {
  /// Per-round frame size as a multiple of the tags expected to reply.
  /// Load factor 1 is near-optimal; larger trades slots for rounds.
  double frame_load = 1.0;
  /// Give up after this many rounds (0 tags left unknown on exit is the
  /// common case well before this cap).
  std::uint32_t max_rounds = 64;
  radio::ChannelModel channel = {};
  /// Campaign-wide false-accusation probability budget on a lossy channel;
  /// drives the derived confirmation streak (see required_confirmations).
  double accusation_error = 1e-9;
  /// Explicit override for the absence-confirmation streak; 0 derives it
  /// from the channel loss rate and `accusation_error`.
  std::uint32_t confirmations = 0;
  /// Filter-first only: once at most this many tags remain unknown,
  /// collision slots are tree-split in-round instead of re-framed.
  std::uint32_t tree_split_below = 512;
};

struct IdentifyResult {
  std::vector<tag::TagId> missing;     // proven absent
  std::vector<tag::TagId> present;     // proven present
  std::vector<tag::TagId> unresolved;  // round cap hit before classification
  std::uint64_t rounds = 0;
  /// Framed slots plus tree prefix queries — the paper-style slot count.
  std::uint64_t total_slots = 0;
  std::uint64_t frame_empty_slots = 0;
  std::uint64_t frame_reply_slots = 0;
  std::uint64_t tree_queries = 0;
  std::uint64_t tree_empty_queries = 0;
  /// Reader→tag ACK-filter bits broadcast (filter-first only).
  std::uint64_t filter_bits = 0;
  /// The absence streak a missing verdict needed (1 on an ideal channel).
  std::uint32_t confirmations_required = 1;
  /// Zero-estimator guess at the missing count after the first frame.
  double estimated_missing = 0.0;

  /// Honest air time of the whole campaign under `timing`.
  [[nodiscard]] double elapsed_us(const radio::TimingModel& timing) const noexcept {
    return timing.identify_us(frame_empty_slots, frame_reply_slots,
                              tree_empty_queries,
                              tree_queries - tree_empty_queries, filter_bits,
                              rounds);
  }
};

/// Consecutive absence observations required before accusing a tag, derived
/// from the channel loss rate so that the campaign-wide false-accusation
/// probability stays below `config.accusation_error`. 1 on an ideal channel.
[[nodiscard]] std::uint32_t required_confirmations(
    const IdentifyConfig& config, std::size_t enrolled_count) noexcept;

/// One member of the identification family. Implementations are stateless
/// across campaigns (safe to share between zones) and deterministic given
/// the RNG stream.
class IdentificationProtocol {
 public:
  virtual ~IdentificationProtocol() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Runs one identification campaign: `enrolled` is the server's ID list,
  /// `present_tags` the physically present population the reader can reach.
  /// `rng` drives challenge randomness (and channel noise, if any).
  [[nodiscard]] virtual IdentifyResult identify(
      std::span<const tag::TagId> enrolled,
      std::span<const tag::Tag> present_tags, const hash::SlotHasher& hasher,
      util::Rng& rng) const = 0;

  [[nodiscard]] const IdentifyConfig& config() const noexcept {
    return config_;
  }

 protected:
  /// Validates and stores the campaign configuration (throws
  /// std::invalid_argument on nonsense).
  explicit IdentificationProtocol(IdentifyConfig config);

  IdentifyConfig config_;
};

/// Builds a family member. Throws std::invalid_argument on a bad config.
[[nodiscard]] std::unique_ptr<IdentificationProtocol>
make_identification_protocol(IdentifyProtocolKind kind, IdentifyConfig config);

/// Records one campaign into the identify_* metric family (obs/catalog.h).
void record_identify_metrics(obs::MetricsRegistry& registry,
                             std::string_view protocol,
                             const IdentifyResult& result);

}  // namespace rfid::protocol
