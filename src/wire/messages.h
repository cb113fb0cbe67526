// The server <-> reader message set, with byte-level encode/decode.
//
// Five messages cover one monitoring round of either protocol:
//   ChallengeRequest   reader -> server   "give me work for group X"
//   TrpChallengeMsg    server -> reader   (f, r)                  [Alg. 1]
//   UtrpChallengeMsg   server -> reader   (f, r_1..r_f)           [Alg. 5]
//   BitstringReport    reader -> server   bs (+ measured scan time)
//   VerdictAck         server -> reader   round accepted (intact or not)
// A message's type is its frame's type byte (wire/frame.h); its payload is
// its field list, walked by util/codec.h (the challenges' layouts are the
// field lists of protocol/messages.h, which the server journal shares).
// decode_* reject wrong types, truncation and trailing bytes, and check what
// a layout cannot say: a challenge has at least one slot, and a UTRP
// challenge at least one seed.
// Requests and reports are idempotent (keyed by round number) so the session
// layer can retransmit over lossy links without double-counting.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "bitstring/bitstring.h"
#include "protocol/messages.h"
#include "wire/frame.h"

namespace rfid::wire {

enum class MessageType : std::uint8_t {
  kChallengeRequest = 1,
  kTrpChallenge = 2,
  kUtrpChallenge = 3,
  kBitstringReport = 4,
  kVerdictAck = 5,
};

struct ChallengeRequest {
  std::string group_name;
  std::uint64_t round = 0;

  static auto fields(auto& m) { return std::tie(m.group_name, m.round); }
};

/// Challenges carry the round they answer so a delayed duplicate from an
/// earlier round cannot be mistaken for the current one (links may reorder).
struct TrpChallengeMsg {
  std::uint64_t round = 0;
  protocol::TrpChallenge challenge;

  static auto fields(auto& m) { return std::tie(m.round, m.challenge); }
};

struct UtrpChallengeMsg {
  std::uint64_t round = 0;
  protocol::UtrpChallenge challenge;

  static auto fields(auto& m) { return std::tie(m.round, m.challenge); }
};

struct BitstringReport {
  std::string group_name;
  std::uint64_t round = 0;
  bits::Bitstring bitstring;
  double scan_time_us = 0.0;  // the reader's claimed scan duration

  static auto fields(auto& m) {
    return std::tie(m.group_name, m.round, m.bitstring, m.scan_time_us);
  }
};

struct VerdictAck {
  std::uint64_t round = 0;
  bool intact = false;

  static auto fields(auto& m) { return std::tie(m.round, m.intact); }
};

[[nodiscard]] std::vector<std::byte> encode(const ChallengeRequest& msg);
[[nodiscard]] std::vector<std::byte> encode(const TrpChallengeMsg& msg);
[[nodiscard]] std::vector<std::byte> encode(const UtrpChallengeMsg& msg);
[[nodiscard]] std::vector<std::byte> encode(const BitstringReport& msg);
[[nodiscard]] std::vector<std::byte> encode(const VerdictAck& msg);

/// Each decoder takes a frame checked by open_frame (an endpoint checks each
/// frame it receives once); a frame of another type is rejected.
[[nodiscard]] ChallengeRequest decode_challenge_request(FrameView frame);
[[nodiscard]] TrpChallengeMsg decode_trp_challenge(FrameView frame);
[[nodiscard]] UtrpChallengeMsg decode_utrp_challenge(FrameView frame);
[[nodiscard]] BitstringReport decode_bitstring_report(FrameView frame);
[[nodiscard]] VerdictAck decode_verdict_ack(FrameView frame);

}  // namespace rfid::wire
