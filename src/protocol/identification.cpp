#include "protocol/identification.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "estimate/cardinality.h"
#include "obs/catalog.h"
#include "protocol/tree_walk.h"
#include "tag/columnar.h"
#include "util/expect.h"

namespace rfid::protocol {
namespace {

// The values are bit flags so that classification can compute a verdict
// without branching: missing | present << 1.
enum class Status : std::uint8_t { kUnknown = 0, kMissing = 1, kPresent = 2 };

void partition_verdicts(std::span<const tag::TagId> enrolled,
                        std::span<const Status> status,
                        IdentifyResult& result) {
  std::size_t counts[3] = {0, 0, 0};
  for (const Status s : status) ++counts[static_cast<std::size_t>(s)];
  result.unresolved.reserve(counts[static_cast<std::size_t>(Status::kUnknown)]);
  result.missing.reserve(counts[static_cast<std::size_t>(Status::kMissing)]);
  result.present.reserve(counts[static_cast<std::size_t>(Status::kPresent)]);
  for (std::size_t i = 0; i < enrolled.size(); ++i) {
    switch (status[i]) {
      case Status::kMissing: result.missing.push_back(enrolled[i]); break;
      case Status::kPresent: result.present.push_back(enrolled[i]); break;
      case Status::kUnknown: result.unresolved.push_back(enrolled[i]); break;
    }
  }
}

/// Slots in a frame sized for `repliers` at `load`. Throws
/// std::invalid_argument (before anything is allocated) when the frame
/// would not fit a 32-bit slot index.
[[nodiscard]] std::uint32_t sized_frame(double load, double repliers) {
  constexpr double kMaxSlots = std::numeric_limits<std::uint32_t>::max();
  const double slots = load * std::max(repliers, 1.0);
  RFID_EXPECT(slots < kMaxSlots + 0.5,  // also rejects NaN
              "identification frame exceeds 2^32 - 1 slots");
  const auto f = std::llround(slots);
  return static_cast<std::uint32_t>(std::max<long long>(1, f));
}

/// One bit per slot. At f ≈ 10^6 a map is 125 KB and stays in L2, which is
/// where a round's per-tag lookups at random slots land.
struct SlotBits {
  std::vector<std::uint64_t> words;

  [[nodiscard]] static constexpr std::uint64_t bit(std::uint32_t s) noexcept {
    return std::uint64_t{1} << (s & 63);
  }
  void reset(std::uint32_t f) { words.assign((f + 63) / 64, 0); }
  void set(std::uint32_t s) noexcept { words[s >> 6] |= bit(s); }
  [[nodiscard]] bool test(std::uint32_t s) const noexcept {
    return (words[s >> 6] & bit(s)) != 0;
  }
};

/// One framed round as the server reasons about it, shared by both family
/// members: which slots the reader heard, which slots one or several of the
/// tags under test hash to, and the slots that prove their sole mapper
/// present (heard, exactly one mapper). Exact per-slot reply counts are kept
/// only on a lossy channel, where radio::resolve_slot draws once per reply;
/// otherwise a round holds nothing but bitmaps.
class FrameMaps {
 public:
  /// Builds the maps of an f-slot frame in which the tags under test hash to
  /// `mapper_slots` and the present tags answer at `replier_slots`. Returns
  /// the number of slots the reader observes empty. Draws from `rng` exactly
  /// as a slot-by-slot radio::resolve_slot sweep does.
  std::uint64_t build(std::span<const std::uint32_t> mapper_slots,
                      std::span<const std::uint32_t> replier_slots,
                      std::uint32_t f, const radio::ChannelModel& channel,
                      util::Rng& rng) {
    once_.reset(f);
    multi_.reset(f);
    for (const std::uint32_t s : mapper_slots) {
      // A second mapper lands in `multi_` without a data-dependent branch.
      std::uint64_t& seen = once_.words[s >> 6];
      multi_.words[s >> 6] |= seen & SlotBits::bit(s);
      seen |= SlotBits::bit(s);
    }
    heard_.reset(f);
    if (channel.ideal()) {
      for (const std::uint32_t s : replier_slots) heard_.set(s);
    } else {
      replies_.assign(f, 0);
      for (const std::uint32_t s : replier_slots) ++replies_[s];
      for (std::uint32_t s = 0; s < f; ++s) {
        if (radio::occupied(radio::resolve_slot(replies_[s], channel, rng))) {
          heard_.set(s);
        }
      }
    }
    std::uint64_t heard_count = 0;
    proven_.words.resize(heard_.words.size());
    for (std::size_t w = 0; w < heard_.words.size(); ++w) {
      heard_count += static_cast<std::uint64_t>(std::popcount(heard_.words[w]));
      proven_.words[w] = heard_.words[w] & once_.words[w] & ~multi_.words[w];
    }
    return f - heard_count;
  }

  [[nodiscard]] bool heard(std::uint32_t s) const noexcept {
    return heard_.test(s);
  }
  /// Heard, and exactly one tag under test maps here: that tag is present.
  [[nodiscard]] bool proven(std::uint32_t s) const noexcept {
    return proven_.test(s);
  }
  /// At least two tags under test map here.
  [[nodiscard]] bool shared(std::uint32_t s) const noexcept {
    return multi_.test(s);
  }

 private:
  SlotBits once_;
  SlotBits multi_;
  SlotBits heard_;
  SlotBits proven_;
  std::vector<std::uint32_t> replies_;  // lossy channels only
};

/// The enrolled tags a campaign still reasons about, in enrollment order,
/// each with its slot word, absence streak and slot in the current frame.
/// Compacted in place as tags are classified, so a round walks only the
/// tags it can still learn something about.
struct TagList {
  std::vector<std::uint32_t> idx;  // position in the enrolled list
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> streak;
  std::vector<std::uint32_t> slots;

  explicit TagList(std::span<const tag::TagId> enrolled)
      : idx(enrolled.size()), words(enrolled.size()), streak(enrolled.size()) {
    for (std::size_t i = 0; i < enrolled.size(); ++i) {
      idx[i] = static_cast<std::uint32_t>(i);
      words[i] = enrolled[i].slot_word();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return idx.size(); }

  /// Maps every listed tag into this round's (f, r) frame.
  void hash(const hash::SlotHasher& hasher, std::uint64_t r, std::uint32_t f) {
    slots.resize(idx.size());
    tag::bulk_trp_slots(hasher, words, r, f, slots);
  }

  /// Copies entry `from` down to `to` (to <= from): the step of a
  /// write-always, branch-free compaction.
  void move(std::size_t from, std::size_t to) noexcept {
    idx[to] = idx[from];
    words[to] = words[from];
    streak[to] = streak[from];
    slots[to] = slots[from];
  }

  void truncate(std::size_t count) {
    idx.resize(count);
    words.resize(count);
    streak.resize(count);
    slots.resize(count);
  }

  /// Keeps, in order, the entries whose tag status satisfies `keep`.
  template <typename Keep>
  void retain(std::span<const Status> status, Keep keep) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const bool keep_k = keep(status[idx[k]]);
      move(k, kept);
      kept += static_cast<std::size_t>(keep_k);
    }
    truncate(kept);
  }
};

[[nodiscard]] std::vector<std::uint64_t> slot_words_of(
    std::span<const tag::Tag> tags) {
  std::vector<std::uint64_t> words;
  words.reserve(tags.size());
  for (const tag::Tag& t : tags) words.push_back(t.id().slot_word());
  return words;
}

// --------------------------------------------------------- iterative ----

class IterativeProtocol final : public IdentificationProtocol {
 public:
  explicit IterativeProtocol(IdentifyConfig config)
      : IdentificationProtocol(std::move(config)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "iterative";
  }

  [[nodiscard]] IdentifyResult identify(std::span<const tag::TagId> enrolled,
                                        std::span<const tag::Tag> present_tags,
                                        const hash::SlotHasher& hasher,
                                        util::Rng& rng) const override;
};

IdentifyResult IterativeProtocol::identify(std::span<const tag::TagId> enrolled,
                                           std::span<const tag::Tag> present_tags,
                                           const hash::SlotHasher& hasher,
                                           util::Rng& rng) const {
  RFID_EXPECT(!enrolled.empty(), "nothing enrolled");

  IdentifyResult result;
  const std::uint32_t confirmations =
      required_confirmations(config_, enrolled.size());
  result.confirmations_required = confirmations;

  const std::size_t n = enrolled.size();
  std::vector<Status> status(n, Status::kUnknown);
  std::size_t unknown_count = n;
  // What the server expects: slots of every tag not yet proven missing
  // (proven-missing tags cannot reply; proven-present ones still do and can
  // mask an unknown tag sharing their slot).
  TagList candidates(enrolled);

  const std::vector<std::uint64_t> replier_words = slot_words_of(present_tags);
  std::vector<std::uint32_t> replier_slots(replier_words.size());
  FrameMaps frame;

  while (unknown_count > 0 && result.rounds < config_.max_rounds) {
    ++result.rounds;
    // Frames are sized to the tags that still REPLY — proven-present tags
    // cannot be silenced (the reader has no per-tag addressing without
    // IDs), so they keep occupying slots and would swamp a frame sized only
    // to the unknowns.
    const std::size_t candidate_count = candidates.size();
    const std::uint32_t f =
        sized_frame(config_.frame_load, static_cast<double>(candidate_count));
    result.total_slots += f;
    const std::uint64_t r = rng();

    // What the reader observes: every physically present tag replies in its
    // slot (tags have no notion of their classification status).
    tag::bulk_trp_slots(hasher, replier_words, r, f, replier_slots);
    candidates.hash(hasher, r, f);
    const std::uint64_t empties =
        frame.build(candidates.slots, replier_slots, f, config_.channel, rng);
    result.frame_empty_slots += empties;
    result.frame_reply_slots += f - empties;

    if (result.rounds == 1) {
      const auto est = estimate::estimate_cardinality(empties, f);
      result.estimated_missing = std::max(
          0.0, static_cast<double>(candidate_count) -
                   (est.saturated ? static_cast<double>(candidate_count)
                                  : est.estimate));
    }

    bool any_missing = false;
    for (std::size_t k = 0; k < candidate_count; ++k) {
      const std::uint32_t i = candidates.idx[k];
      if (status[i] != Status::kUnknown) continue;
      const std::uint32_t s = candidates.slots[k];
      if (!frame.heard(s)) {
        // Nobody replied where this tag must have: one unit of absence
        // evidence. A streak of `confirmations` proves it absent.
        if (++candidates.streak[k] >= confirmations) {
          status[i] = Status::kMissing;
          --unknown_count;
          any_missing = true;
        }
      } else {
        // An occupied slot is consistent with presence, and proves it when
        // this tag is the only possible replier.
        candidates.streak[k] = 0;
        if (frame.proven(s)) {
          status[i] = Status::kPresent;
          --unknown_count;
        }
      }
    }
    if (any_missing) {
      candidates.retain(status,
                        [](Status st) { return st != Status::kMissing; });
    }
  }

  partition_verdicts(enrolled, status, result);
  return result;
}

// ------------------------------------------------------- filter-first ----

class FilterFirstProtocol final : public IdentificationProtocol {
 public:
  explicit FilterFirstProtocol(IdentifyConfig config)
      : IdentificationProtocol(std::move(config)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "filter_first";
  }

  [[nodiscard]] IdentifyResult identify(std::span<const tag::TagId> enrolled,
                                        std::span<const tag::Tag> present_tags,
                                        const hash::SlotHasher& hasher,
                                        util::Rng& rng) const override;
};

IdentifyResult FilterFirstProtocol::identify(
    std::span<const tag::TagId> enrolled,
    std::span<const tag::Tag> present_tags, const hash::SlotHasher& hasher,
    util::Rng& rng) const {
  RFID_EXPECT(!enrolled.empty(), "nothing enrolled");

  IdentifyResult result;
  const std::uint32_t confirmations =
      required_confirmations(config_, enrolled.size());
  result.confirmations_required = confirmations;

  const std::size_t n = enrolled.size();
  std::vector<Status> status(n, Status::kUnknown);
  // Only the unknowns map into the frame on either side of the link:
  // proven-missing tags cannot reply, proven-present ones were silenced by
  // an ACK filter the round they were proven.
  TagList active(enrolled);

  // Tags still answering: ACK-silenced tags drop out for the campaign.
  std::vector<std::uint64_t> replier_words = slot_words_of(present_tags);
  std::vector<std::uint32_t> replier_slots;

  double est_repliers = -1.0;  // no estimate before the first frame
  FrameMaps frame;
  std::vector<std::uint64_t> split_proven_words;

  while (active.size() > 0 && result.rounds < config_.max_rounds) {
    ++result.rounds;
    // Size the frame by the ESTIMATED repliers (zero-estimator on the
    // previous frame), not the candidate count: when most candidates are
    // already stolen, estimate-sized frames collapse instead of burning
    // population-sized runs of empty slots. The +2σ keeps undersizing —
    // which would starve sole-replier proofs — unlikely.
    double sized = static_cast<double>(active.size());
    if (est_repliers >= 0.0) sized = std::min(sized, est_repliers);
    const std::uint32_t f = sized_frame(config_.frame_load, sized);
    result.total_slots += f;
    const std::uint64_t r = rng();

    active.hash(hasher, r, f);
    replier_slots.resize(replier_words.size());
    tag::bulk_trp_slots(hasher, replier_words, r, f, replier_slots);
    const std::uint64_t empties =
        frame.build(active.slots, replier_slots, f, config_.channel, rng);
    result.frame_empty_slots += empties;
    result.frame_reply_slots += f - empties;

    // Classify on the frame alone, compacting the tags still unknown to the
    // front of `active` in the same pass. Branch-free: whether a tag's slot
    // was heard, and whether it proves the tag present, are coin flips to a
    // branch predictor.
    std::size_t newly_present = 0;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::uint32_t s = active.slots[k];
      const bool heard = frame.heard(s);
      const bool present = frame.proven(s);
      active.streak[k] = heard ? 0 : active.streak[k] + 1;
      const bool missing = !heard & (active.streak[k] >= confirmations);
      status[active.idx[k]] = static_cast<Status>(
          static_cast<unsigned>(missing) | static_cast<unsigned>(present) << 1);
      newly_present += static_cast<std::size_t>(present);
      active.move(k, kept);
      kept += static_cast<std::size_t>(!(missing | present));
    }
    active.truncate(kept);

    // Tree-split the ambiguous slots in-round once few unknowns remain:
    // a directed prefix walk separates each collision instead of paying an
    // O(log n) tail of ever-smaller re-framing rounds.
    split_proven_words.clear();
    if (kept > 0 && kept <= config_.tree_split_below) {
      std::map<std::uint32_t, std::vector<std::uint32_t>> ambiguous;
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::uint32_t s = active.slots[k];
        if (frame.heard(s) && frame.shared(s)) {
          ambiguous[s].push_back(static_cast<std::uint32_t>(k));
        }
      }
      std::map<std::uint32_t, std::vector<std::uint64_t>> slot_repliers;
      if (!ambiguous.empty()) {
        for (std::size_t j = 0; j < replier_words.size(); ++j) {
          const auto it = ambiguous.find(replier_slots[j]);
          if (it != ambiguous.end()) {
            slot_repliers[replier_slots[j]].push_back(replier_words[j]);
          }
        }
      }
      std::vector<std::uint64_t> cand_w;
      for (const auto& [s, ks] : ambiguous) {
        cand_w.clear();
        for (const std::uint32_t k : ks) cand_w.push_back(active.words[k]);
        const auto reps = slot_repliers.find(s);
        const auto split = split_collision_slot(
            cand_w,
            reps == slot_repliers.end()
                ? std::span<const std::uint64_t>{}
                : std::span<const std::uint64_t>(reps->second),
            config_.channel, rng);
        result.tree_queries += split.queries;
        result.tree_empty_queries += split.empty_queries;
        result.total_slots += split.queries;
        for (std::size_t c = 0; c < ks.size(); ++c) {
          const std::uint32_t k = ks[c];
          if (split.proven_present[c]) {
            status[active.idx[k]] = Status::kPresent;
            ++newly_present;
            split_proven_words.push_back(active.words[k]);
          } else if (split.observed_absent[c]) {
            // At most one unit of absence evidence per tag per round, so
            // the consecutive-round soundness bound still applies.
            if (++active.streak[k] >= confirmations) {
              status[active.idx[k]] = Status::kMissing;
            }
          }
        }
      }
      active.retain(status, [](Status st) { return st == Status::kUnknown; });
    }

    // ACK filter: one broadcast bit per slot, set on exactly the slots that
    // proved their sole mapper present. Tags that answered in an ACKed slot
    // go silent, and a tag proven by a singleton tree reply is ACKed at its
    // prefix (word match). Collision slots are never ACKed: that would
    // silence unproven tags sharing them and turn their silence into false
    // accusations later.
    if (newly_present > 0) {
      result.filter_bits += f;
      std::size_t still = 0;
      for (std::size_t j = 0; j < replier_words.size(); ++j) {
        replier_words[still] = replier_words[j];
        still += static_cast<std::size_t>(!frame.proven(replier_slots[j]));
      }
      replier_words.resize(still);
      if (!split_proven_words.empty()) {
        std::sort(split_proven_words.begin(), split_proven_words.end());
        std::erase_if(replier_words, [&](std::uint64_t w) {
          return std::binary_search(split_proven_words.begin(),
                                    split_proven_words.end(), w);
        });
      }
    }

    // Update the replier estimate for the next frame's sizing.
    const auto est = estimate::estimate_cardinality(empties, f);
    if (result.rounds == 1) {
      result.estimated_missing = std::max(
          0.0, static_cast<double>(n) -
                   (est.saturated ? static_cast<double>(n) : est.estimate));
    }
    if (est.saturated) {
      est_repliers = -1.0;  // no information: fall back to the unknown count
    } else {
      est_repliers =
          std::max(0.0, est.estimate + 2.0 * est.std_error -
                            static_cast<double>(newly_present));
    }
  }

  partition_verdicts(enrolled, status, result);
  return result;
}

}  // namespace

std::string_view to_string(IdentifyProtocolKind kind) noexcept {
  switch (kind) {
    case IdentifyProtocolKind::kIterative: return "iterative";
    case IdentifyProtocolKind::kFilterFirst: return "filter_first";
  }
  return "unknown";
}

std::uint32_t required_confirmations(const IdentifyConfig& config,
                                     std::size_t enrolled_count) noexcept {
  if (config.confirmations > 0) return config.confirmations;
  const double loss = config.channel.reply_loss_prob;
  if (loss <= 0.0) return 1;
  // P(false accusation of one present tag) <= max_rounds · loss^C (union
  // bound over streak start positions); demand the campaign-wide bound
  // n · max_rounds · loss^C <= accusation_error.
  const double n = static_cast<double>(std::max<std::size_t>(1, enrolled_count));
  const double rounds =
      static_cast<double>(std::max<std::uint32_t>(1, config.max_rounds));
  const double target = config.accusation_error / (n * rounds);
  const double c = std::ceil(std::log(target) / std::log(loss));
  if (!(c >= 1.0)) return 1;
  return static_cast<std::uint32_t>(std::min(c, 1e6));
}

IdentificationProtocol::IdentificationProtocol(IdentifyConfig config)
    : config_(std::move(config)) {
  RFID_EXPECT(std::isfinite(config_.frame_load) && config_.frame_load > 0.0,
              "frame load must be positive and finite");
  RFID_EXPECT(config_.max_rounds >= 1, "need at least one round");
  RFID_EXPECT(config_.accusation_error > 0.0 && config_.accusation_error < 1.0,
              "accusation error budget must be in (0, 1)");
  RFID_EXPECT(config_.channel.reply_loss_prob < 1.0,
              "a channel that loses every reply cannot identify anything");
}

std::unique_ptr<IdentificationProtocol> make_identification_protocol(
    IdentifyProtocolKind kind, IdentifyConfig config) {
  switch (kind) {
    case IdentifyProtocolKind::kIterative:
      return std::make_unique<IterativeProtocol>(std::move(config));
    case IdentifyProtocolKind::kFilterFirst:
      return std::make_unique<FilterFirstProtocol>(std::move(config));
  }
  RFID_EXPECT(false, "unknown identification protocol kind");
  return nullptr;
}

void record_identify_metrics(obs::MetricsRegistry& registry,
                             std::string_view protocol,
                             const IdentifyResult& result) {
  obs::catalog::identify_campaigns_total(
      registry, protocol, result.unresolved.empty() ? "resolved" : "capped")
      .inc();
  obs::catalog::identify_rounds_total(registry, protocol).inc(result.rounds);
  obs::catalog::identify_slots_total(registry, protocol, "frame")
      .inc(result.frame_empty_slots + result.frame_reply_slots);
  obs::catalog::identify_slots_total(registry, protocol, "tree")
      .inc(result.tree_queries);
  obs::catalog::identify_filter_bits_total(registry).inc(result.filter_bits);
  obs::catalog::identify_tags_total(registry, "missing")
      .inc(result.missing.size());
  obs::catalog::identify_tags_total(registry, "present")
      .inc(result.present.size());
  obs::catalog::identify_tags_total(registry, "unresolved")
      .inc(result.unresolved.size());
}

}  // namespace rfid::protocol
