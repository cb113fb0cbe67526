// UTRP — the UnTrusted Reader Protocol (Sec. 5 of the paper).
//
// TRP's bitstring can be forged by a dishonest reader that split the tag set
// with a collaborator: each scans its half and ORs the results (Alg. 4).
// UTRP adds two mechanisms that force collaborating readers to exchange a
// message after (potentially) every slot:
//
//  * Re-seeding (Alg. 6): the server issues (f, r_1 … r_f) up front; after
//    every slot that contains a reply the reader must re-broadcast the next
//    random number with the shrunken frame f' = f − sn, and all tags that
//    have not yet replied pick a new slot. No reader can predict where the
//    next reply lands, so split readers must check with each other at every
//    empty slot.
//  * Tag counters (Alg. 7): every (f, r) reception increments a monotone
//    on-tag counter ct that feeds the slot hash h(id ⊕ r ⊕ ct) mod f, so a
//    reader cannot rewind and replay the frame to learn reply positions.
//
// The walk over one frame is implemented once, over the live tags: the
// slot words and counters of the tags that have not replied yet, copied
// into compact working columns (tag::UtrpLiveTags). Each re-seed is one
// pass over them, on AVX-512 lanes where the CPU and hash kind allow. A
// tag that replies leaves the live set and, when the walk runs in place,
// its counter and silenced flag are written back. utrp_scan walks
// per-tag state (tag::Tag) in place — what physical tags do; the honest
// reader and wire sessions run it, and the split attack runs the same
// live set over each half. utrp_scan_columnar walks the server's mirrored
// database, a tag::ColumnarTagSet of IDs and counters (each counter only
// advances when its tag is queried), in place, and
// UtrpServer::expected_bitstring walks it without the write-back.
//
// Counter synchronization: the server runs one walk per round.
// UtrpServer::commit_round walks the mirror in place and compares that
// walk's bitstring with the report. After an intact round the real walk was
// identical to the mirror's, so the mirror keeps the walk's write-back.
// After an alert, mirror and reality may have diverged: the mirror is put
// back as it was before the round, and re-synchronization (e.g.
// re-enrollment) is out of the paper's scope and is surfaced by
// needs_resync().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstring/bitstring.h"
#include "hash/slot_hash.h"
#include "math/frame_optimizer.h"
#include "obs/metrics.h"
#include "protocol/messages.h"
#include "protocol/trp.h"
#include "radio/channel.h"
#include "tag/columnar.h"
#include "tag/tag_set.h"
#include "util/random.h"

namespace rfid::protocol {

/// Outcome of one UTRP frame walk.
struct UtrpScanResult {
  bits::Bitstring bitstring;
  std::uint64_t reseeds = 0;          // re-seed broadcasts sent (Alg. 6 line 7)
  std::uint64_t seeds_consumed = 0;   // initial broadcast + re-seeds
  std::uint64_t replies = 0;          // tags that transmitted (and went silent)
  std::uint64_t slots_hashed = 0;     // (counter++, hash) receptions executed
};

/// Executes Algs. 6 + 7 jointly over `tags`, mutating their counters and
/// silenced flags exactly as a real scan would. The ideal-channel overload is
/// fully deterministic; the channel overload consults `rng` for loss/capture
/// (an unobserved reply silences the tag but triggers no re-seed — the
/// divergence a lossy channel inflicts on UTRP is measured in the benches).
[[nodiscard]] UtrpScanResult utrp_scan(std::span<tag::Tag> tags,
                                       const hash::SlotHasher& hasher,
                                       const UtrpChallenge& challenge);
[[nodiscard]] UtrpScanResult utrp_scan(std::span<tag::Tag> tags,
                                       const hash::SlotHasher& hasher,
                                       const UtrpChallenge& challenge,
                                       const radio::ChannelModel& channel,
                                       util::Rng& rng);

/// The ideal-channel utrp_scan over the server's columnar mirror: the same
/// walk, the same results (bitstring, reseeds, seeds, replies, slots
/// hashed, and the tags' counters/silenced flags). Only the ideal channel
/// is offered — this is the server-side mirror walk.
[[nodiscard]] UtrpScanResult utrp_scan_columnar(tag::ColumnarTagSet& tags,
                                                const hash::SlotHasher& hasher,
                                                const UtrpChallenge& challenge);

class UtrpServer {
 public:
  /// Enrolls the group: snapshots IDs *and* counters into the columnar
  /// mirror, and sizes the frame by Eq. (3) for the group's (n, m, α)
  /// against an adversary with communication budget `comm_budget`
  /// (memoized per process, see math/frame_optimizer.h). `slack_slots`
  /// reproduces the paper's 5–10 extra slots over the Eq. (3) optimum.
  UtrpServer(const tag::TagSet& enrolled, MonitoringPolicy policy,
             std::uint64_t comm_budget, std::uint32_t slack_slots = 8,
             hash::SlotHasher hasher = hash::SlotHasher{});

  /// Enrolls with a pre-solved Eq. (3) plan. The plan only depends on
  /// (n, m, alpha, c, slack, model); a caller that must reject an
  /// unsatisfiable shape before any server exists (the fleet sizes every
  /// zone at submit, before its workers run) solves first and injects.
  UtrpServer(const tag::TagSet& enrolled, MonitoringPolicy policy,
             std::uint64_t comm_budget, const math::UtrpPlan& plan,
             hash::SlotHasher hasher = hash::SlotHasher{});

  [[nodiscard]] std::uint64_t group_size() const noexcept { return mirror_.size(); }
  [[nodiscard]] const MonitoringPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] std::uint64_t comm_budget() const noexcept { return comm_budget_; }
  [[nodiscard]] std::uint32_t frame_size() const noexcept { return plan_.frame_size; }
  [[nodiscard]] const math::UtrpPlan& plan() const noexcept { return plan_; }

  /// Fresh challenge: frame size from Eq. (3) plus f random seeds (Alg. 5).
  [[nodiscard]] UtrpChallenge issue_challenge(util::Rng& rng) const;

  /// The bitstring an honest reader scanning the intact set would return,
  /// derived from the mirrored database (counters included) by the
  /// columnar walk without its write-back. Does not advance the mirror.
  [[nodiscard]] bits::Bitstring expected_bitstring(const UtrpChallenge& challenge) const;

  /// Compares a returned bitstring against the expectation without
  /// advancing the mirror: a check only (attacks, examples, benches).
  /// `deadline_met` feeds the timer check of Alg. 5 (a late answer fails
  /// verification regardless of content).
  [[nodiscard]] Verdict verify(const UtrpChallenge& challenge,
                               const bits::Bitstring& reported,
                               bool deadline_met = true) const;

  /// The server's step of one round: walks the mirror once in place and
  /// judges the report against that walk's bitstring exactly as verify()
  /// does. An intact round keeps the walk (the real tags made exactly the
  /// same transitions). A mismatched or late round puts the mirror back
  /// as it was and marks the server as needing re-synchronization. A
  /// report of the wrong length, or a walk that throws, leaves the mirror
  /// as it was and flags nothing.
  [[nodiscard]] Verdict commit_round(const UtrpChallenge& challenge,
                                     const bits::Bitstring& reported,
                                     bool deadline_met = true);

  /// True once a failed round has left mirror and reality possibly diverged.
  [[nodiscard]] bool needs_resync() const noexcept { return needs_resync_; }

  /// Recovery hook: reinstates a diverged-mirror flag recorded before a
  /// snapshot (the failed round that set it is not replayed, so the flag
  /// must be restored explicitly). Not for normal operation.
  void mark_needs_resync() noexcept { needs_resync_ = true; }

  /// Re-enrolls from a trusted physical audit of the tags (counters copied).
  void resync(const tag::TagSet& audited);

  /// The mirrored database (IDs + counters as the server believes them).
  /// Read-only: exposed so recovery flows can audit counter drift.
  [[nodiscard]] const tag::ColumnarTagSet& mirror() const noexcept {
    return mirror_;
  }

  /// Attaches an observability registry: issue_challenge/verify/commit_round
  /// start recording challenges, round outcomes (intact | mismatch |
  /// deadline_missed), slot totals, frame sizes, and the re-seeds of each
  /// intact round's mirror walk under protocol="utrp". Pass nullptr to
  /// detach. The registry must outlive this server.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// Judges `reported` against the walk's `expected` bitstring and records
  /// the round's outcome.
  [[nodiscard]] Verdict verify_against(const UtrpChallenge& challenge,
                                       const bits::Bitstring& expected,
                                       const bits::Bitstring& reported,
                                       bool deadline_met) const;

  /// Cached series handles; null when no registry is attached.
  struct Instruments {
    obs::Counter* challenges = nullptr;
    obs::Counter* rounds_intact = nullptr;
    obs::Counter* rounds_mismatch = nullptr;
    obs::Counter* rounds_deadline_missed = nullptr;
    obs::Counter* slots = nullptr;
    obs::Counter* mismatched_slots = nullptr;
    obs::Counter* mirror_reseeds = nullptr;
    obs::Counter* bulk_slots = nullptr;  // receptions run by the bulk walk
    obs::Histogram* frame_size = nullptr;
  };

  tag::ColumnarTagSet mirror_;  // IDs + counters as the server believes them
  MonitoringPolicy policy_;
  std::uint64_t comm_budget_;
  hash::SlotHasher hasher_;
  math::UtrpPlan plan_;
  bool needs_resync_ = false;
  Instruments instruments_;
};

class UtrpReader {
 public:
  explicit UtrpReader(hash::SlotHasher hasher = hash::SlotHasher{})
      : hasher_(hasher) {}

  /// Honest scan: runs the walk over the physically present tags, in
  /// place (each tag's counter and silenced flag end as Alg. 7 leaves them).
  [[nodiscard]] UtrpScanResult scan(std::span<tag::Tag> present,
                                    const UtrpChallenge& challenge) const {
    return utrp_scan(present, hasher_, challenge);
  }

 private:
  hash::SlotHasher hasher_;
};

}  // namespace rfid::protocol
