#include "wire/messages.h"

#include "util/codec.h"
#include "util/expect.h"

namespace rfid::wire {

namespace {

using util::Decoder;
using util::Encoder;

[[nodiscard]] std::vector<std::byte> finish(MessageType type, const Encoder& body) {
  return encode_frame(static_cast<std::uint8_t>(type), body.bytes());
}

[[nodiscard]] Decoder open(FrameView frame, MessageType expected) {
  RFID_EXPECT(static_cast<MessageType>(frame.type) == expected,
              "unexpected message type");
  return Decoder(frame.payload);
}

}  // namespace

std::vector<std::byte> encode(const ChallengeRequest& msg) {
  Encoder enc;
  enc.put_string(msg.group_name);
  enc.put_u64(msg.round);
  return finish(MessageType::kChallengeRequest, enc);
}

std::vector<std::byte> encode(const TrpChallengeMsg& msg) {
  Encoder enc;
  enc.put_u64(msg.round);
  enc.put_u32(msg.challenge.frame_size);
  enc.put_u64(msg.challenge.r);
  return finish(MessageType::kTrpChallenge, enc);
}

std::vector<std::byte> encode(const UtrpChallengeMsg& msg) {
  Encoder enc;
  enc.put_u64(msg.round);
  enc.put_u32(msg.challenge.frame_size);
  enc.put_u32(static_cast<std::uint32_t>(msg.challenge.seeds.size()));
  for (const std::uint64_t seed : msg.challenge.seeds) enc.put_u64(seed);
  return finish(MessageType::kUtrpChallenge, enc);
}

std::vector<std::byte> encode(const BitstringReport& msg) {
  Encoder enc;
  enc.put_string(msg.group_name);
  enc.put_u64(msg.round);
  enc.put_u64(msg.bitstring.size());
  enc.put_string(msg.bitstring.to_hex());
  enc.put_f64(msg.scan_time_us);
  return finish(MessageType::kBitstringReport, enc);
}

std::vector<std::byte> encode(const VerdictAck& msg) {
  Encoder enc;
  enc.put_u64(msg.round);
  enc.put_bool(msg.intact);
  return finish(MessageType::kVerdictAck, enc);
}

ChallengeRequest decode_challenge_request(FrameView frame) {
  Decoder dec = open(frame, MessageType::kChallengeRequest);
  ChallengeRequest msg;
  msg.group_name = dec.get_string();
  msg.round = dec.get_u64();
  dec.expect_exhausted();
  return msg;
}

TrpChallengeMsg decode_trp_challenge(FrameView frame) {
  Decoder dec = open(frame, MessageType::kTrpChallenge);
  TrpChallengeMsg msg;
  msg.round = dec.get_u64();
  msg.challenge.frame_size = dec.get_u32();
  msg.challenge.r = dec.get_u64();
  dec.expect_exhausted();
  RFID_EXPECT(msg.challenge.frame_size >= 1, "challenge has no slots");
  return msg;
}

UtrpChallengeMsg decode_utrp_challenge(FrameView frame) {
  Decoder dec = open(frame, MessageType::kUtrpChallenge);
  UtrpChallengeMsg msg;
  msg.round = dec.get_u64();
  msg.challenge.frame_size = dec.get_u32();
  const std::size_t count = dec.get_count(8);
  msg.challenge.seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    msg.challenge.seeds.push_back(dec.get_u64());
  }
  dec.expect_exhausted();
  RFID_EXPECT(msg.challenge.frame_size >= 1, "challenge has no slots");
  RFID_EXPECT(!msg.challenge.seeds.empty(), "challenge has no seeds");
  return msg;
}

BitstringReport decode_bitstring_report(FrameView frame) {
  Decoder dec = open(frame, MessageType::kBitstringReport);
  BitstringReport msg;
  msg.group_name = dec.get_string();
  msg.round = dec.get_u64();
  const std::uint64_t bits = dec.get_u64();
  msg.bitstring = bits::Bitstring::from_hex(bits, dec.get_string());
  msg.scan_time_us = dec.get_f64();
  dec.expect_exhausted();
  return msg;
}

VerdictAck decode_verdict_ack(FrameView frame) {
  Decoder dec = open(frame, MessageType::kVerdictAck);
  VerdictAck msg;
  msg.round = dec.get_u64();
  msg.intact = dec.get_bool();
  dec.expect_exhausted();
  return msg;
}

}  // namespace rfid::wire
