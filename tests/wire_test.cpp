// Tests for the wire layer: codec, messages, links, and full sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "decoder_battery.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "radio/timing.h"
#include "service/framing.h"
#include "tag/tag_set.h"
#include "util/codec.h"
#include "util/random.h"
#include "wire/frame.h"
#include "wire/link.h"
#include "wire/messages.h"
#include "wire/session.h"

namespace {

using namespace rfid;
using util::Decoder;
using util::Encoder;

// ----------------------------------------------------------------- codec --

TEST(Codec, PrimitiveRoundTrip) {
  Encoder enc;
  enc.put_u8(0xab);
  enc.put_u32(0xdeadbeef);
  enc.put_u64(0x0123456789abcdefULL);
  enc.put_f64(3.14159);
  enc.put_string("hello RFID");

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u8(), 0xab);
  EXPECT_EQ(dec.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(dec.get_f64(), 3.14159);
  EXPECT_EQ(dec.get_string(), "hello RFID");
  EXPECT_NO_THROW(dec.expect_exhausted());
}

TEST(Codec, TruncationThrows) {
  Encoder enc;
  enc.put_u32(42);
  Decoder dec(enc.bytes());
  (void)dec.get_u32();
  EXPECT_THROW((void)dec.get_u8(), std::invalid_argument);
}

TEST(Codec, TrailingGarbageDetected) {
  Encoder enc;
  enc.put_u8(1);
  enc.put_u8(2);
  Decoder dec(enc.bytes());
  (void)dec.get_u8();
  EXPECT_THROW(dec.expect_exhausted(), std::invalid_argument);
}

TEST(Codec, FrameRoundTrip) {
  Encoder enc;
  enc.put_string("payload");
  const auto framed = wire::encode_frame(7, enc.bytes());
  const wire::FrameView frame = wire::open_frame(framed);
  const std::vector<std::byte> payload(frame.payload.begin(),
                                       frame.payload.end());
  EXPECT_EQ(payload, enc.bytes());
  EXPECT_EQ(frame.type, 7);
}

TEST(Codec, FrameChecksumCatchesBitFlip) {
  Encoder enc;
  enc.put_u64(12345);
  auto framed = wire::encode_frame(7, enc.bytes());
  framed[5] ^= std::byte{0x01};
  EXPECT_THROW((void)wire::open_frame(framed), std::invalid_argument);
}

TEST(Codec, FrameLengthMismatchCaught) {
  Encoder enc;
  enc.put_u64(12345);
  auto framed = wire::encode_frame(7, enc.bytes());
  framed.pop_back();
  EXPECT_THROW((void)wire::open_frame(framed), std::invalid_argument);
}

std::string hex_of(std::span<const std::byte> bytes) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::byte b : bytes) {
    hex += kDigits[std::to_integer<unsigned>(b) >> 4];
    hex += kDigits[std::to_integer<unsigned>(b) & 0xf];
  }
  return hex;
}

TEST(Frame, ReaderLinkFrameIsPinnedAndIsTheServiceFrame) {
  // type, then the payload length, payload (round u64, intact u8) and
  // fnv1a32 checksum, each integer little-endian.
  const std::vector<std::byte> frame = wire::encode(wire::VerdictAck{7, true});
  EXPECT_EQ(hex_of(frame),
            "05" "09000000" "0700000000000000" "01" "4d341d92");

  // An independent FNV-1a-32 over type, length and payload.
  std::uint32_t fnv = 0x811c9dc5U;
  for (std::size_t i = 0; i + 4 < frame.size(); ++i) {
    fnv ^= std::to_integer<std::uint32_t>(frame[i]);
    fnv *= 0x01000193U;
  }
  EXPECT_EQ(Decoder(std::span<const std::byte>(frame).last(4)).get_u32(), fnv);

  // The service's stream reader parses the same bytes.
  service::FrameReader reader(1 << 16);
  std::vector<service::Frame> out;
  ASSERT_EQ(reader.feed(frame, out), service::ErrorCode::kNone);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, static_cast<std::uint8_t>(wire::MessageType::kVerdictAck));
  EXPECT_EQ(hex_of(out[0].payload), "0700000000000000" "01");
  const wire::VerdictAck ack =
      wire::decode_verdict_ack(wire::FrameView{out[0].type, out[0].payload});
  EXPECT_EQ(ack.round, 7u);
  EXPECT_TRUE(ack.intact);
}

TEST(Frame, EverySingleBitFlipOfAReaderLinkFrameIsRejected) {
  bits::Bitstring bs(130);
  bs.set(64);
  for (const std::vector<std::byte>& clean :
       {wire::encode(wire::ChallengeRequest{"dock", 3}),
        wire::encode(wire::TrpChallengeMsg{3, {1068, 0xfeedfaceULL}}),
        wire::encode(wire::UtrpChallengeMsg{3, {3, {7, 8, 9}}}),
        wire::encode(wire::BitstringReport{"dock", 3, bs, 10.5}),
        wire::encode(wire::VerdictAck{3, false})}) {
    std::vector<std::byte> bent = clean;
    for (std::size_t bit = 0; bit < bent.size() * 8; ++bit) {
      const std::byte mask{static_cast<unsigned char>(1u << (bit % 8))};
      bent[bit / 8] ^= mask;
      EXPECT_THROW((void)wire::open_frame(bent), std::invalid_argument)
          << "bit " << bit << " of a " << clean.size() << "-byte frame";
      bent[bit / 8] ^= mask;
    }
  }
}

// -------------------------------------------------------------- messages --

// Every reader-link message's whole frame, pinned as hex captured from the
// hand-written codecs (VerdictAck is pinned above). Every field is
// non-default, the seed list has several entries, and the bitstring's last
// 64-bit word is partial. Decoding the frame and encoding the message again
// must give the same bytes.
template <class Message, class Decode>
void expect_pinned(const Message& message, Decode decode,
                   std::string_view hex) {
  const std::vector<std::byte> frame = wire::encode(message);
  EXPECT_EQ(hex_of(frame), hex);
  EXPECT_EQ(wire::encode(decode(wire::open_frame(frame))), frame);
}

TEST(MessageBytes, ChallengeRequest) {
  expect_pinned(wire::ChallengeRequest{"dock", 17},
                wire::decode_challenge_request,
                "011000000004000000646f636b1100000000000000863e6f34");
}

TEST(MessageBytes, TrpChallengeMsg) {
  expect_pinned(wire::TrpChallengeMsg{3, {1068, 0xfeedfaceULL}},
                wire::decode_trp_challenge,
                "021400000003000000000000002c040000cefaedfe00000000994c5c"
                "cf");
}

TEST(MessageBytes, UtrpChallengeMsg) {
  expect_pinned(wire::UtrpChallengeMsg{9, {5, {11, 22, 0x0102030405060708ULL}}},
                wire::decode_utrp_challenge,
                "0328000000090000000000000005000000030000000b000000000000"
                "001600000000000000080706050403020120db8597");
}

TEST(MessageBytes, BitstringReport) {
  bits::Bitstring bs(70);
  bs.set(0);
  bs.set(3);
  bs.set(64);
  bs.set(69);
  expect_pinned(wire::BitstringReport{"dock", 4, bs, 12345.5},
                wire::decode_bitstring_report,
                "044400000004000000646f636b040000000000000046000000000000"
                "00200000003030303030303030303030303030303930303030303030"
                "30303030303030323100000000c01cc840dc845eee");
}

TEST(Messages, ChallengeRequestRoundTrip) {
  const wire::ChallengeRequest msg{"warehouse east", 17};
  const auto frame = wire::encode(msg);
  const auto decoded = wire::decode_challenge_request(wire::open_frame(frame));
  EXPECT_EQ(decoded.group_name, "warehouse east");
  EXPECT_EQ(decoded.round, 17u);
}

TEST(Messages, TrpChallengeRoundTrip) {
  const wire::TrpChallengeMsg msg{3, {1068, 0xfeedfaceULL}};
  const auto frame = wire::encode(msg);
  const auto decoded = wire::decode_trp_challenge(wire::open_frame(frame));
  EXPECT_EQ(decoded.round, 3u);
  EXPECT_EQ(decoded.challenge.frame_size, 1068u);
  EXPECT_EQ(decoded.challenge.r, 0xfeedfaceULL);
}

TEST(Messages, UtrpChallengeRoundTrip) {
  wire::UtrpChallengeMsg msg;
  msg.round = 9;
  msg.challenge.frame_size = 5;
  msg.challenge.seeds = {1, 2, 3, 4, 5};
  const auto frame = wire::encode(msg);
  const auto decoded = wire::decode_utrp_challenge(wire::open_frame(frame));
  EXPECT_EQ(decoded.round, 9u);
  EXPECT_EQ(decoded.challenge.frame_size, 5u);
  EXPECT_EQ(decoded.challenge.seeds, msg.challenge.seeds);
}

TEST(Messages, BitstringReportRoundTrip) {
  bits::Bitstring bs(130);
  bs.set(0);
  bs.set(64);
  bs.set(129);
  const wire::BitstringReport msg{"g", 4, bs, 12345.5};
  const auto frame = wire::encode(msg);
  const auto decoded = wire::decode_bitstring_report(wire::open_frame(frame));
  EXPECT_EQ(decoded.bitstring, bs);
  EXPECT_EQ(decoded.round, 4u);
  EXPECT_DOUBLE_EQ(decoded.scan_time_us, 12345.5);
}

TEST(Messages, VerdictAckRoundTrip) {
  const auto yes_frame = wire::encode(wire::VerdictAck{7, true});
  const auto yes = wire::decode_verdict_ack(wire::open_frame(yes_frame));
  EXPECT_EQ(yes.round, 7u);
  EXPECT_TRUE(yes.intact);
  const auto no_frame = wire::encode(wire::VerdictAck{8, false});
  const auto no = wire::decode_verdict_ack(wire::open_frame(no_frame));
  EXPECT_FALSE(no.intact);
}

TEST(Messages, PeekTypeAndWrongTypeRejected) {
  const auto frame = wire::encode(wire::ChallengeRequest{"x", 1});
  const wire::FrameView checked = wire::open_frame(frame);
  EXPECT_EQ(static_cast<wire::MessageType>(checked.type),
            wire::MessageType::kChallengeRequest);
  EXPECT_THROW((void)wire::decode_trp_challenge(checked), std::invalid_argument);
}

TEST(Messages, MalformedChallengeRejected) {
  const auto frame = wire::encode(wire::TrpChallengeMsg{1, {0, 5}});
  EXPECT_THROW((void)wire::decode_trp_challenge(wire::open_frame(frame)),
               std::invalid_argument);
}

TEST(Messages, ForgedSeedCountRejectedBeforeAllocating) {
  // A checksum-valid UTRP challenge claiming 2^32 - 1 seeds but carrying one.
  Encoder enc;
  enc.put_u64(1);            // round
  enc.put_u32(4);            // frame size
  enc.put_u32(0xffffffffU);  // seed count
  enc.put_u64(9);            // the one seed present
  const auto frame = wire::encode_frame(
      static_cast<std::uint8_t>(wire::MessageType::kUtrpChallenge), enc.bytes());
  EXPECT_THROW((void)wire::decode_utrp_challenge(wire::open_frame(frame)),
               std::invalid_argument);
}

TEST(Messages, EveryWireDecoderSurvivesGarbage) {
  // A frame is checksummed, so garbage fed to it dies in open_frame.
  // Each decoder also gets its payload's garbage inside a valid frame,
  // which reaches the field parsing behind the checksum. A receiving
  // endpoint opens the frame, then decodes it, so that is what each
  // entry point below runs on the garbage.
  const auto battery = [](std::string_view name,
                          const std::vector<std::byte>& frame, auto decode) {
    const auto open_then_decode = [&decode](std::span<const std::byte> f) {
      return decode(wire::open_frame(f));
    };
    test::expect_decoder_survives_garbage(name, frame, open_then_decode);
    const wire::FrameView checked = wire::open_frame(frame);
    test::expect_decoder_survives_garbage(
        std::string(name) + " (payload re-framed)", checked.payload,
        [&open_then_decode, type = checked.type](std::span<const std::byte> p) {
          return open_then_decode(wire::encode_frame(type, p));
        });
  };
  bits::Bitstring bs(130);
  bs.set(0);
  bs.set(64);
  bs.set(129);
  wire::UtrpChallengeMsg utrp;
  utrp.round = 9;
  utrp.challenge.frame_size = 5;
  utrp.challenge.seeds = {1, 2, 3};

  battery("open_frame(f).type", wire::encode(wire::VerdictAck{7, true}),
          [](wire::FrameView f) { return f.type; });
  battery("decode_challenge_request",
          wire::encode(wire::ChallengeRequest{"warehouse east", 17}),
          wire::decode_challenge_request);
  battery("decode_trp_challenge",
          wire::encode(wire::TrpChallengeMsg{3, {1068, 0xfeedfaceULL}}),
          wire::decode_trp_challenge);
  battery("decode_utrp_challenge", wire::encode(utrp),
          wire::decode_utrp_challenge);
  battery("decode_bitstring_report",
          wire::encode(wire::BitstringReport{"g", 4, bs, 12345.5}),
          wire::decode_bitstring_report);
  battery("decode_verdict_ack", wire::encode(wire::VerdictAck{7, true}),
          wire::decode_verdict_ack);
}

// ------------------------------------------------------------------ link --

TEST(Link, DeliversAfterLatency) {
  sim::EventQueue queue;
  util::Rng rng(1);
  wire::Link link(queue, {.latency_us = 500.0}, rng);
  double delivered_at = -1.0;
  Encoder enc;
  enc.put_u8(7);
  ASSERT_TRUE(link.send(enc.bytes(), [&](std::vector<std::byte> f) {
    delivered_at = queue.now();
    EXPECT_EQ(f.size(), 1u);
  }));
  (void)queue.run();
  EXPECT_DOUBLE_EQ(delivered_at, 500.0);
}

TEST(Link, DropsAtConfiguredRate) {
  sim::EventQueue queue;
  util::Rng rng(2);
  wire::Link link(queue, {.latency_us = 1.0, .jitter_us = 0.0, .drop_prob = 0.3},
                  rng);
  int delivered = 0;
  constexpr int kFrames = 5000;
  for (int i = 0; i < kFrames; ++i) {
    (void)link.send({}, [&](std::vector<std::byte>) { ++delivered; });
  }
  (void)queue.run();
  EXPECT_EQ(link.frames_sent(), static_cast<std::uint64_t>(kFrames));
  EXPECT_NEAR(static_cast<double>(link.frames_dropped()) / kFrames, 0.3, 0.03);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + link.frames_dropped(),
            link.frames_sent());
}

TEST(Link, JitterBoundsDelay) {
  sim::EventQueue queue;
  util::Rng rng(3);
  wire::Link link(queue, {.latency_us = 100.0, .jitter_us = 50.0}, rng);
  for (int i = 0; i < 200; ++i) {
    (void)link.send({}, [&](std::vector<std::byte>) {
      EXPECT_GE(queue.now(), 100.0);
      EXPECT_LT(queue.now(), 150.0 + 1e-9);
    });
  }
  (void)queue.run();
}

// --------------------------------------------------------------- session --

TEST(Session, PerfectLinksCompleteAllRounds) {
  sim::EventQueue queue;
  util::Rng rng(4);
  const tag::TagSet set = tag::TagSet::make_random(200, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  wire::SessionConfig config;
  config.group_name = "g";
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 5, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.rounds_completed, 5u);
  ASSERT_EQ(outcome.verdicts.size(), 5u);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
  EXPECT_EQ(outcome.retransmissions, 0u);
  // 4 messages per round, both directions counted.
  EXPECT_EQ(outcome.frames_sent, 20u);
}

TEST(Session, LossyLinksStillCompleteViaRetransmission) {
  sim::EventQueue queue;
  util::Rng rng(5);
  const tag::TagSet set = tag::TagSet::make_random(150, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  wire::SessionConfig config;
  config.uplink = {.latency_us = 1000.0, .jitter_us = 200.0, .drop_prob = 0.25};
  config.downlink = {.latency_us = 1000.0, .jitter_us = 200.0, .drop_prob = 0.25};
  config.max_retries = 30;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 4, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.rounds_completed, 4u);
  EXPECT_GT(outcome.frames_dropped, 0u);
  EXPECT_GT(outcome.retransmissions, 0u);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
}

TEST(Session, DetectsTheftOverTheWire) {
  sim::EventQueue queue;
  util::Rng rng(6);
  tag::TagSet set = tag::TagSet::make_random(300, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 5, .confidence = 0.95});
  (void)set.steal_random(60, rng);
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 3, {}, rng);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.verdicts.size(), 3u);
  for (const auto& verdict : outcome.verdicts) EXPECT_FALSE(verdict.intact);
}

TEST(Session, DeadLinkGivesUpGracefully) {
  sim::EventQueue queue;
  util::Rng rng(7);
  const tag::TagSet set = tag::TagSet::make_random(50, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 2, .confidence = 0.95});
  wire::SessionConfig config;
  config.uplink = {.latency_us = 1000.0, .jitter_us = 0.0, .drop_prob = 1.0};
  config.max_retries = 3;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.rounds_completed, 0u);
  EXPECT_EQ(outcome.frames_dropped, outcome.frames_sent);
  EXPECT_EQ(outcome.failure, wire::FailureReason::kTimeoutExhausted);
}

TEST(UtrpSession, PerfectLinksCompleteAndCommitCounters) {
  sim::EventQueue queue;
  util::Rng rng(9);
  tag::TagSet set = tag::TagSet::make_random(150, rng);
  protocol::UtrpServer server(set,
                              {.tolerated_missing = 3, .confidence = 0.95}, 20);
  wire::SessionConfig config;
  const auto outcome =
      wire::run_utrp_session(queue, server, set.tags(), 4, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.rounds_completed, 4u);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
  EXPECT_FALSE(server.needs_resync());
  // Counters advanced: at least one tag heard more than the initial seeds.
  bool counters_moved = false;
  for (const auto& t : set.tags()) {
    if (t.counter() >= 4) counters_moved = true;
  }
  EXPECT_TRUE(counters_moved);
}

TEST(UtrpSession, TheftDetectedAndResyncFlagged) {
  sim::EventQueue queue;
  util::Rng rng(10);
  tag::TagSet set = tag::TagSet::make_random(200, rng);
  protocol::UtrpServer server(set,
                              {.tolerated_missing = 3, .confidence = 0.95}, 20);
  (void)set.steal_random(40, rng);
  wire::SessionConfig config;
  const auto outcome =
      wire::run_utrp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.verdicts.size(), 1u);
  EXPECT_FALSE(outcome.verdicts[0].intact);
  EXPECT_TRUE(server.needs_resync());
}

TEST(UtrpSession, DeadlineEnforcedAgainstSlowLinks) {
  // An honest reader behind a miserable link: the content is right but the
  // wall-clock budget is blown by retransmissions — Alg. 5's timer fires.
  sim::EventQueue queue;
  util::Rng rng(11);
  tag::TagSet set = tag::TagSet::make_random(100, rng);
  protocol::UtrpServer server(set,
                              {.tolerated_missing = 3, .confidence = 0.95}, 20);
  wire::SessionConfig config;
  config.uplink = {.latency_us = 200000.0, .jitter_us = 0.0, .drop_prob = 0.0};
  config.downlink = {.latency_us = 200000.0, .jitter_us = 0.0, .drop_prob = 0.0};
  config.retry_timeout_us = 500000.0;
  config.utrp_deadline_us = 100000.0;  // far less than one link round trip
  const auto outcome =
      wire::run_utrp_session(queue, server, set.tags(), 1, config, rng);
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.verdicts.size(), 1u);
  EXPECT_FALSE(outcome.verdicts[0].intact);
  EXPECT_FALSE(outcome.verdicts[0].deadline_met);
  EXPECT_EQ(outcome.verdicts[0].mismatched_slots, 0u);  // content was right
}

TEST(UtrpSession, GenerousDeadlinePasses) {
  sim::EventQueue queue;
  util::Rng rng(12);
  tag::TagSet set = tag::TagSet::make_random(100, rng);
  protocol::UtrpServer server(set,
                              {.tolerated_missing = 3, .confidence = 0.95}, 20);
  wire::SessionConfig config;
  config.utrp_deadline_us = 10e6;  // ten simulated seconds
  const auto outcome =
      wire::run_utrp_session(queue, server, set.tags(), 2, config, rng);
  EXPECT_TRUE(outcome.completed);
  for (const auto& verdict : outcome.verdicts) EXPECT_TRUE(verdict.intact);
}

TEST(UtrpSession, ChargesReseedBroadcastsSlotBySlot) {
  // The air time a UTRP round charges (its report's scan_time_us, which the
  // reader also waits out before sending it) is a slot-by-slot sum: the
  // query broadcast, each slot's window, and a re-seed broadcast after every
  // reply except one in the frame's last slot (Alg. 6). Links without
  // latency make the whole session that one scan.
  sim::EventQueue queue;
  util::Rng rng(4);
  tag::TagSet set = tag::TagSet::make_random(80, rng);
  protocol::UtrpServer server(set,
                              {.tolerated_missing = 3, .confidence = 0.95}, 20);
  obs::MetricsRegistry metrics;
  obs::Tracer tracer([&queue] { return queue.now(); });
  wire::SessionConfig config;
  config.uplink.latency_us = 0.0;
  config.downlink.latency_us = 0.0;
  config.metrics = &metrics;
  config.tracer = &tracer;
  const auto outcome =
      wire::run_utrp_session(queue, server, set.tags(), 1, config, rng);
  ASSERT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.reported.size(), 1u);

  const bits::Bitstring& bs = outcome.reported[0];
  const radio::TimingModel timing{};
  double per_slot_us = timing.query_broadcast_us;
  std::uint64_t reseeds = 0;
  for (std::size_t slot = 0; slot < bs.size(); ++slot) {
    if (!bs.test(slot)) {
      per_slot_us += timing.empty_slot_us;
      continue;
    }
    per_slot_us += timing.short_reply_slot_us;
    if (slot + 1 < bs.size()) {
      ++reseeds;
      per_slot_us += timing.reseed_broadcast_us;
    }
  }
  EXPECT_GE(reseeds, 1u);
  EXPECT_EQ(obs::catalog::reseeds_total(metrics, "reader").value(), reseeds);

  EXPECT_DOUBLE_EQ(outcome.finished_at_us, per_slot_us);
  const auto& spans = tracer.spans();
  const auto scan =
      std::find_if(spans.begin(), spans.end(),
                   [](const obs::Span& s) { return s.name == "scan"; });
  ASSERT_NE(scan, spans.end());
  EXPECT_DOUBLE_EQ(scan->duration_us(), per_slot_us);
}

TEST(Session, TwoGroupsInterleaveOnOneQueue) {
  // Two independent sessions share the simulated clock: their events
  // interleave like two readers on one backhaul, and both must complete
  // with correct verdicts.
  sim::EventQueue queue;
  util::Rng rng(13);
  const tag::TagSet intact_set = tag::TagSet::make_random(120, rng);
  tag::TagSet robbed_set = tag::TagSet::make_random(120, rng);
  const protocol::TrpServer server_a(
      intact_set.ids(), {.tolerated_missing = 3, .confidence = 0.95});
  const protocol::TrpServer server_b(
      robbed_set.ids(), {.tolerated_missing = 3, .confidence = 0.95});
  (void)robbed_set.steal_random(30, rng);

  // Run A to completion first on the shared queue, then B starting at A's
  // finish time (sequential reuse); the clock must only move forward.
  wire::SessionConfig config;
  config.group_name = "A";
  const auto outcome_a =
      wire::run_trp_session(queue, server_a, intact_set.tags(), 2, config, rng);
  const double a_finish = outcome_a.finished_at_us;
  config.group_name = "B";
  const auto outcome_b =
      wire::run_trp_session(queue, server_b, robbed_set.tags(), 2, config, rng);
  EXPECT_TRUE(outcome_a.completed);
  EXPECT_TRUE(outcome_b.completed);
  EXPECT_GT(outcome_b.finished_at_us, a_finish);
  for (const auto& verdict : outcome_a.verdicts) EXPECT_TRUE(verdict.intact);
  for (const auto& verdict : outcome_b.verdicts) EXPECT_FALSE(verdict.intact);
}

TEST(Session, RejectsZeroRounds) {
  sim::EventQueue queue;
  util::Rng rng(14);
  const tag::TagSet set = tag::TagSet::make_random(20, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 1, .confidence = 0.9});
  EXPECT_THROW((void)wire::run_trp_session(queue, server, set.tags(), 0, {}, rng),
               std::invalid_argument);
}

TEST(Session, RetransmittedRequestsReuseTheSameChallenge) {
  // Idempotency property: even under heavy drop, each round produces at
  // most one verdict (duplicates are replayed, not re-verified).
  sim::EventQueue queue;
  util::Rng rng(8);
  const tag::TagSet set = tag::TagSet::make_random(100, rng);
  const protocol::TrpServer server(set.ids(),
                                   {.tolerated_missing = 2, .confidence = 0.95});
  wire::SessionConfig config;
  config.uplink = {.latency_us = 500.0, .jitter_us = 0.0, .drop_prob = 0.4};
  config.downlink = {.latency_us = 500.0, .jitter_us = 0.0, .drop_prob = 0.4};
  config.max_retries = 50;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), 6, config, rng);
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.verdicts.size(), 6u);
}

}  // namespace
