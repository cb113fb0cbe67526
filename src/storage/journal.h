// Write-ahead journal: the append-only record stream that makes every
// InventoryServer mutation durable before it is applied.
//
// Why a journal at all: the paper's protocols only work because the server's
// database — tag IDs and, for UTRP, the per-tag counter mirror (Sec. 3,
// Alg. 5) — survives across rounds. A crash that loses a committed counter
// advance is indistinguishable from the mirror divergence that `resync`
// exists to heal, except nobody stole anything. The journal records the
// *inputs* of each mutation (challenge, reported bitstring, deadline flag,
// audit set); replaying them through the ordinary server entry points is
// deterministic, so recovery regenerates verdicts, counter advances, and the
// alert timeline bit-for-bit.
//
// On disk: the "RFIDMON-JOURNAL 1\n" magic line, then one record-log frame
// per record (storage/record_log.h owns the frame, the torn-tail scan and
// the atomic rewrite). A record's payload is its kind byte — JournalRecord's
// alternative index + 1: enroll 1, TRP round 2, UTRP round 3, resync 4 —
// then its field list below, walked by util/codec.h; the rounds share the
// reader link's statement of the paper's challenges (protocol/messages.h).
// scan_journal() stops at the first invalid record and reports the clean
// prefix — a torn tail (crash mid-append) or a rotted byte truncates the
// suffix instead of failing recovery. Atomicity therefore holds per record:
// a mutation is either fully journaled (replayed) or not journaled at all
// (lost with the crash) — never half-applied.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "bitstring/bitstring.h"
#include "protocol/messages.h"
#include "server/inventory_server.h"
#include "tag/tag_set.h"

namespace rfid::storage {

inline constexpr std::string_view kJournalMagic = "RFIDMON-JOURNAL 1\n";

/// A group enrolled after the last snapshot.
struct EnrollRecord {
  server::GroupConfig config;
  tag::TagSet tags;

  static auto fields(auto& m) {
    auto& c = m.config;
    return std::tie(c.protocol, c.policy.tolerated_missing, c.policy.confidence,
                    c.policy.model, c.comm_budget, c.slack_slots, c.name, m.tags);
  }
};

/// One completed TRP round: enough to re-run submit_trp verbatim.
struct TrpRoundRecord {
  std::uint64_t group = 0;
  protocol::TrpChallenge challenge;
  bits::Bitstring reported;

  static auto fields(auto& m) {
    return std::tie(m.group, m.challenge, m.reported);
  }
};

/// One completed UTRP round: challenge seeds, reported bitstring, and the
/// Alg. 5 timer outcome — replay re-advances the counter mirror through
/// commit_round exactly as the live round did.
struct UtrpRoundRecord {
  std::uint64_t group = 0;
  protocol::UtrpChallenge challenge;
  bits::Bitstring reported;
  bool deadline_met = true;

  /// The timer outcome travels before the bitstring.
  static auto fields(auto& m) {
    return std::tie(m.group, m.challenge, m.deadline_met, m.reported);
  }
};

/// A mirror re-commit from a trusted physical audit.
struct ResyncRecord {
  std::uint64_t group = 0;
  tag::TagSet audited;

  static auto fields(auto& m) { return std::tie(m.group, m.audited); }
};

using JournalRecord =
    std::variant<EnrollRecord, TrpRoundRecord, UtrpRoundRecord, ResyncRecord>;

/// Frames one record (length prefix + checksum + payload).
[[nodiscard]] std::string encode_record(const JournalRecord& record);

struct JournalScan {
  std::vector<JournalRecord> records;
  bool header_valid = false;
  std::uint64_t valid_bytes = 0;    // clean prefix length, header included
  std::uint64_t dropped_bytes = 0;  // torn/rotted suffix discarded
};

/// Walks the journal byte stream, collecting every valid record and
/// truncating at the first torn or corrupt one. Never throws on damaged
/// input — damage is data, reported in the scan result.
[[nodiscard]] JournalScan scan_journal(std::string_view bytes);

}  // namespace rfid::storage
