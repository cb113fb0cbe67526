#include "wire/messages.h"

#include "util/codec.h"
#include "util/expect.h"

namespace rfid::wire {

namespace {

template <class Message>
[[nodiscard]] std::vector<std::byte> framed(MessageType type,
                                            const Message& msg) {
  return encode_frame(static_cast<std::uint8_t>(type), util::encode(msg));
}

template <class Message>
[[nodiscard]] Message open(FrameView frame, MessageType expected) {
  RFID_EXPECT(static_cast<MessageType>(frame.type) == expected,
              "unexpected message type");
  return util::decode<Message>(frame.payload);
}

}  // namespace

std::vector<std::byte> encode(const ChallengeRequest& msg) {
  return framed(MessageType::kChallengeRequest, msg);
}

std::vector<std::byte> encode(const TrpChallengeMsg& msg) {
  return framed(MessageType::kTrpChallenge, msg);
}

std::vector<std::byte> encode(const UtrpChallengeMsg& msg) {
  return framed(MessageType::kUtrpChallenge, msg);
}

std::vector<std::byte> encode(const BitstringReport& msg) {
  return framed(MessageType::kBitstringReport, msg);
}

std::vector<std::byte> encode(const VerdictAck& msg) {
  return framed(MessageType::kVerdictAck, msg);
}

ChallengeRequest decode_challenge_request(FrameView frame) {
  return open<ChallengeRequest>(frame, MessageType::kChallengeRequest);
}

TrpChallengeMsg decode_trp_challenge(FrameView frame) {
  auto msg = open<TrpChallengeMsg>(frame, MessageType::kTrpChallenge);
  RFID_EXPECT(msg.challenge.frame_size >= 1, "challenge has no slots");
  return msg;
}

UtrpChallengeMsg decode_utrp_challenge(FrameView frame) {
  auto msg = open<UtrpChallengeMsg>(frame, MessageType::kUtrpChallenge);
  RFID_EXPECT(msg.challenge.frame_size >= 1, "challenge has no slots");
  RFID_EXPECT(!msg.challenge.seeds.empty(), "challenge has no seeds");
  return msg;
}

BitstringReport decode_bitstring_report(FrameView frame) {
  return open<BitstringReport>(frame, MessageType::kBitstringReport);
}

VerdictAck decode_verdict_ack(FrameView frame) {
  return open<VerdictAck>(frame, MessageType::kVerdictAck);
}

}  // namespace rfid::wire
