// Frame-codec robustness: the satellite contract that malformed input —
// truncated frames, hostile length prefixes, flipped checksum bits, and
// one-byte-at-a-time trickles — produces a typed protocol error and a
// closed connection, never a crash, a hang, or unbounded memory. The first
// half drives FrameReader directly (including a seeded random-garbage
// fuzz); the second half replays the same attacks against a live service
// over loopback.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "decoder_battery.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/messages.h"
#include "service/service.h"
#include "service/socket.h"

namespace {

using namespace rfid::service;

std::vector<std::byte> hello_frame(const std::string& tenant = "t") {
  return encode_frame(FrameType::kHello,
                      encode(HelloRequest{kProtocolVersion, tenant}));
}

TEST(FrameReader, RoundTripsSingleAndBatchedFrames) {
  FrameReader reader(1 << 16);
  std::vector<Frame> out;
  std::vector<std::byte> wire = hello_frame();
  const std::vector<std::byte> second =
      encode_frame(FrameType::kPing, encode(PingMsg{9}));
  wire.insert(wire.end(), second.begin(), second.end());

  ASSERT_EQ(reader.feed(wire, out), ErrorCode::kNone);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(static_cast<FrameType>(out[0].type), FrameType::kHello);
  EXPECT_EQ(decode_hello(out[0].payload).tenant, "t");
  EXPECT_EQ(decode_ping(out[1].payload).nonce, 9u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, EmptyPayloadFrame) {
  FrameReader reader(1 << 16);
  std::vector<Frame> out;
  ASSERT_EQ(reader.feed(encode_frame(FrameType::kGoodbye, {}), out),
            ErrorCode::kNone);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].payload.empty());
}

TEST(FrameReader, OneByteTrickleStillParses) {
  FrameReader reader(1 << 16);
  std::vector<Frame> out;
  const std::vector<std::byte> wire = hello_frame("trickle");
  for (const std::byte b : wire) {
    ASSERT_EQ(reader.feed({&b, 1}, out), ErrorCode::kNone);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(decode_hello(out[0].payload).tenant, "trickle");
}

TEST(FrameReader, TruncatedFrameWaitsWithoutEmitting) {
  FrameReader reader(1 << 16);
  std::vector<Frame> out;
  const std::vector<std::byte> wire = hello_frame();
  const std::span<const std::byte> head(wire.data(), wire.size() - 3);
  ASSERT_EQ(reader.feed(head, out), ErrorCode::kNone);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(reader.buffered(), wire.size() - 3);
  // The missing tail completes it.
  ASSERT_EQ(reader.feed({wire.data() + wire.size() - 3, 3}, out),
            ErrorCode::kNone);
  EXPECT_EQ(out.size(), 1u);
}

TEST(FrameReader, OversizedLengthRejectedBeforeAllocation) {
  FrameReader reader(1024);
  std::vector<Frame> out;
  // type + a 4 GiB length prefix: must die on the 5-byte header alone.
  std::byte header[5];
  header[0] = static_cast<std::byte>(FrameType::kHello);
  const std::uint32_t huge = 0xfffffff0u;
  std::memcpy(header + 1, &huge, sizeof(huge));
  EXPECT_EQ(reader.feed(header, out), ErrorCode::kOversizedFrame);
  EXPECT_TRUE(reader.poisoned());
  EXPECT_TRUE(out.empty());
  // A poisoned reader swallows everything else quietly.
  EXPECT_EQ(reader.feed(hello_frame(), out), ErrorCode::kNone);
  EXPECT_TRUE(out.empty());
}

TEST(FrameReader, FlippedBitFailsChecksum) {
  const std::vector<std::byte> clean = hello_frame();
  // Flip one bit in every position; header length bytes may instead
  // surface as oversized/truncated — never a parsed frame.
  for (std::size_t i = 0; i < clean.size(); ++i) {
    FrameReader reader(1 << 10);
    std::vector<Frame> out;
    std::vector<std::byte> bent = clean;
    bent[i] ^= std::byte{0x40};
    const ErrorCode err = reader.feed(bent, out);
    if (err == ErrorCode::kNone && !out.empty()) {
      // Only the type byte sits outside the length/checksum coverage — and
      // flipping it still fails the checksum, so nothing may parse.
      FAIL() << "corrupted frame parsed at byte " << i;
    }
  }
}

TEST(FrameReader, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(2008);
  for (int round = 0; round < 200; ++round) {
    FrameReader reader(4096);
    std::vector<Frame> out;
    std::size_t budget = 1 + static_cast<std::size_t>(rng() % 2048);
    while (budget > 0) {
      std::byte chunk[64];
      const std::size_t len =
          std::min(budget, 1 + static_cast<std::size_t>(rng() % 63));
      for (std::size_t i = 0; i < len; ++i) {
        chunk[i] = static_cast<std::byte>(rng() & 0xff);
      }
      (void)reader.feed({chunk, len}, out);
      if (reader.poisoned()) break;
      budget -= len;
    }
    // Bounded buffering even when nothing ever completes.
    EXPECT_LE(reader.buffered(), 4096u + 9u);
  }
}

TEST(Messages, ForgedCountPrefixesThrowBeforeAllocating) {
  // An EnrollRequest whose tag count claims 2^32-1 entries against a
  // near-empty payload must throw invalid_argument, not reserve gigabytes.
  EnrollRequest req;
  req.inventory = "x";
  req.tags = {rfid::tag::TagId(1, 2)};
  std::vector<std::byte> payload = encode(req);
  const std::uint32_t forged = 0xffffffffu;
  // The count field sits 12 + 8 bytes of trailing id data from the end.
  std::memcpy(payload.data() + payload.size() - 16, &forged, sizeof(forged));
  EXPECT_THROW((void)decode_enroll(payload), std::invalid_argument);

  StartRunRequest run;
  run.inventory = "x";
  run.stolen = {1};
  payload = encode(run);
  std::memcpy(payload.data() + payload.size() - 12, &forged, sizeof(forged));
  EXPECT_THROW((void)decode_start_run(payload), std::invalid_argument);
}

TEST(Messages, TrailingGarbageRejected) {
  std::vector<std::byte> payload = encode(PingMsg{1});
  payload.push_back(std::byte{0});
  EXPECT_THROW((void)decode_ping(payload), std::invalid_argument);
  EXPECT_THROW((void)decode_hello({}), std::invalid_argument);  // truncated
}

TEST(Messages, ErrorCodeBeyondSixteenBitsRejected) {
  // The code travels as a u32 but names a u16 enum: 0x10012 is malformed,
  // not bad_request (0x12) with its high bits dropped.
  std::vector<std::byte> payload =
      encode(ErrorMsg{.code = ErrorCode::kBadRequest, .message = "bad"});
  EXPECT_EQ(decode_error(payload).code, ErrorCode::kBadRequest);
  payload[2] = std::byte{0x01};  // the code's third byte: 0x12 -> 0x10012
  EXPECT_THROW((void)decode_error(payload), std::invalid_argument);
}

TEST(Messages, EveryServiceDecoderSurvivesGarbage) {
  using rfid::tag::TagId;
  using rfid::test::expect_decoder_survives_garbage;
  expect_decoder_survives_garbage(
      "decode_hello", encode(HelloRequest{kProtocolVersion, "tenant-a"}),
      decode_hello);
  expect_decoder_survives_garbage(
      "decode_hello_ok",
      encode(HelloOk{.session_id = 77,
                     .max_frame_bytes = 1 << 20,
                     .token_capacity = 64,
                     .max_inflight_per_tenant = 8}),
      decode_hello_ok);
  expect_decoder_survives_garbage(
      "decode_enroll",
      encode(EnrollRequest{.inventory = "aisle",
                           .tolerance = 3,
                           .zone_capacity = 40,
                           .rounds = 2,
                           .tags = {TagId(1, 2), TagId(3, 4), TagId(5, 6)}}),
      decode_enroll);
  expect_decoder_survives_garbage(
      "decode_enroll_ok",
      encode(EnrollOk{
          .inventory = "aisle", .tags = 120, .zones = 3, .total_slots = 4096}),
      decode_enroll_ok);
  expect_decoder_survives_garbage(
      "decode_start_run",
      encode(StartRunRequest{.inventory = "aisle",
                             .seed = 9,
                             .identify = true,
                             .stolen = {1, 5, 7}}),
      decode_start_run);
  expect_decoder_survives_garbage(
      "decode_start_watch",
      encode(StartWatchRequest{.inventory = "aisle",
                               .seed = 9,
                               .epochs = 6,
                               .identify = true,
                               .steal_epoch = 2,
                               .steal = 4,
                               .steal_from = 10}),
      decode_start_watch);
  expect_decoder_survives_garbage(
      "decode_run_admitted",
      encode(RunAdmitted{.run_id = 11, .admission = 1, .queue_depth = 3}),
      decode_run_admitted);
  expect_decoder_survives_garbage(
      "decode_backpressure",
      encode(Backpressure{.retry_after_ms = 250, .reason = "saturated"}),
      decode_backpressure);
  expect_decoder_survives_garbage(
      "decode_run_verdict",
      encode(RunVerdictMsg{.run_id = 11,
                           .inventory = "aisle",
                           .verdict = 1,
                           .zones = 4,
                           .zones_violated = 1,
                           .attempts = 4,
                           .tags_named = 2,
                           .missing = {TagId(7, 8), TagId(9, 10)}}),
      decode_run_verdict);
  expect_decoder_survives_garbage(
      "decode_run_alert",
      encode(RunAlertMsg{.run_id = 11,
                         .kind = "zone_escalated",
                         .inventory = "aisle",
                         .zone = 2,
                         .detail = "crashed after 3 attempt(s)"}),
      decode_run_alert);
  expect_decoder_survives_garbage(
      "decode_watch_done",
      encode(WatchDone{.run_id = 11, .epochs_completed = 6, .alerts = 2}),
      decode_watch_done);
  expect_decoder_survives_garbage(
      "decode_subscribe_ok", encode(SubscribeOk{.backlog = 5}),
      decode_subscribe_ok);
  expect_decoder_survives_garbage(
      "decode_tenant_alert",
      encode(TenantAlert{.sequence = 1,
                         .kind = "zone_violated",
                         .run_id = 11,
                         .epoch = 3,
                         .zone = 2,
                         .detail = "theft",
                         .missing = {TagId(1, 2)}}),
      decode_tenant_alert);
  expect_decoder_survives_garbage("decode_ping", encode(PingMsg{.nonce = 42}),
                                  decode_ping);
  expect_decoder_survives_garbage(
      "decode_error",
      encode(ErrorMsg{.code = ErrorCode::kBadRequest, .message = "bad"}),
      decode_error);
  expect_decoder_survives_garbage(
      "decode_shutdown", encode(ShutdownMsg{.drain_ms = 1500}),
      decode_shutdown);
}

TEST(FrameCodec, EncodedFrameIsPinnedLittleEndian) {
  // type, then the payload length, payload and fnv1a32 checksum, each
  // integer little-endian whatever the host's byte order.
  const std::vector<std::byte> frame =
      encode_frame(FrameType::kPing, encode(PingMsg{0x0102030405060708ULL}));
  std::string hex;
  for (const std::byte b : frame) {
    constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[std::to_integer<unsigned>(b) >> 4];
    hex += kDigits[std::to_integer<unsigned>(b) & 0xf];
  }
  EXPECT_EQ(hex, "06" "08000000" "0807060504030201" "b10e43f3");

  FrameReader reader(1 << 16);
  std::vector<Frame> out;
  ASSERT_EQ(reader.feed(frame, out), ErrorCode::kNone);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(decode_ping(out[0].payload).nonce, 0x0102030405060708ULL);
}

// ---- every message's bytes, pinned ----
//
// One populated instance of each message (every field non-default, every
// list at least two entries long), framed, as hex captured from the
// hand-written codecs. A layout change that moves, widens or drops a field
// fails here. Each test also decodes the payload and encodes it again: the
// decoder must read back every field the encoder wrote.

std::string hex_of(std::span<const std::byte> bytes) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::byte b : bytes) {
    hex += kDigits[std::to_integer<unsigned>(b) >> 4];
    hex += kDigits[std::to_integer<unsigned>(b) & 0xf];
  }
  return hex;
}

template <class Message, class Decode>
void expect_pinned(FrameType type, const Message& message, Decode decode,
                   std::string_view hex) {
  const std::vector<std::byte> payload = encode(message);
  EXPECT_EQ(hex_of(encode_frame(type, payload)), hex);
  EXPECT_EQ(encode(decode(payload)), payload);
}

const std::vector<rfid::tag::TagId> kPinnedIds = {
    rfid::tag::TagId(1, 2),
    rfid::tag::TagId(0xdeadbeef, 0x0123456789abcdefULL)};

TEST(MessageBytes, HelloRequest) {
  expect_pinned(FrameType::kHello, HelloRequest{.version = 2, .tenant = "acme"},
                decode_hello,
                "010c000000020000000400000061636d6538aea976");
}

TEST(MessageBytes, HelloOk) {
  expect_pinned(FrameType::kHelloOk,
                HelloOk{.version = 2,
                        .session_id = 0x1122334455667788ULL,
                        .max_frame_bytes = 1 << 20,
                        .token_capacity = 64,
                        .max_inflight_per_tenant = 8},
                decode_hello_ok,
                "41200000000200000088776655443322110000100040000000000000"
                "00080000000000000086d9f10e");
}

TEST(MessageBytes, EnrollRequest) {
  expect_pinned(FrameType::kEnroll,
                EnrollRequest{.inventory = "aisle",
                              .protocol = 1,
                              .tolerance = 3,
                              .alpha = 0.99,
                              .zone_capacity = 40,
                              .rounds = 2,
                              .tags = kPinnedIds},
                decode_enroll,
                "0246000000050000006169736c65010300000000000000ae47e17a14"
                "aeef3f28000000000000000200000000000000020000000100000002"
                "00000000000000efbeaddeefcdab8967452301db9d4063");
}

TEST(MessageBytes, EnrollOk) {
  expect_pinned(FrameType::kEnrollOk,
                EnrollOk{.inventory = "aisle",
                         .tags = 120,
                         .zones = 3,
                         .total_slots = 4096},
                decode_enroll_ok,
                "4221000000050000006169736c657800000000000000030000000000"
                "0000001000000000000070a9d9bd");
}

TEST(MessageBytes, StartRunRequest) {
  expect_pinned(FrameType::kStartRun,
                StartRunRequest{.inventory = "aisle",
                                .seed = 9,
                                .identify = true,
                                .stolen = {1, 0x0102030405060708ULL}},
                decode_start_run,
                "0326000000050000006169736c650900000000000000010200000001"
                "0000000000000008070605040302012a4bc3ce");
}

TEST(MessageBytes, StartWatchRequest) {
  expect_pinned(FrameType::kStartWatch,
                StartWatchRequest{.inventory = "aisle",
                                  .seed = 9,
                                  .epochs = 6,
                                  .identify = true,
                                  .steal_epoch = 2,
                                  .steal = 4,
                                  .steal_from = 10},
                decode_start_watch,
                "0432000000050000006169736c650900000000000000060000000000"
                "000001020000000000000004000000000000000a000000000000008e"
                "26e389");
}

TEST(MessageBytes, RunAdmitted) {
  expect_pinned(FrameType::kRunAdmitted,
                RunAdmitted{.run_id = 11, .admission = 1, .queue_depth = 3},
                decode_run_admitted,
                "43110000000b0000000000000001030000000000000058ba6123");
}

TEST(MessageBytes, Backpressure) {
  expect_pinned(FrameType::kBackpressure,
                Backpressure{.retry_after_ms = 250, .reason = "saturated"},
                decode_backpressure,
                "4415000000fa000000000000000900000073617475726174656480b5"
                "d451");
}

TEST(MessageBytes, RunVerdictMsg) {
  expect_pinned(FrameType::kRunVerdict,
                RunVerdictMsg{.run_id = 11,
                              .inventory = "aisle",
                              .verdict = 1,
                              .zones = 4,
                              .zones_violated = 1,
                              .attempts = 5,
                              .tags_named = 2,
                              .aborted = true,
                              .missing = kPinnedIds},
                decode_run_verdict,
                "454f0000000b00000000000000050000006169736c65010400000000"
                "00000001000000000000000500000000000000020000000000000001"
                "02000000010000000200000000000000efbeaddeefcdab8967452301"
                "384ff767");
}

TEST(MessageBytes, RunAlertMsg) {
  expect_pinned(FrameType::kRunAlert,
                RunAlertMsg{.run_id = 11,
                            .kind = "zone_escalated",
                            .inventory = "aisle",
                            .zone = 2,
                            .detail = "crashed"},
                decode_run_alert,
                "46360000000b000000000000000e0000007a6f6e655f657363616c61"
                "746564050000006169736c6502000000000000000700000063726173"
                "686564531133d2");
}

TEST(MessageBytes, WatchDone) {
  expect_pinned(FrameType::kWatchDone,
                WatchDone{.run_id = 11,
                          .epochs_completed = 6,
                          .alerts = 2,
                          .gave_up = true},
                decode_watch_done,
                "49190000000b00000000000000060000000000000002000000000000"
                "00017916fba4");
}

TEST(MessageBytes, SubscribeOk) {
  expect_pinned(FrameType::kSubscribeOk, SubscribeOk{.backlog = 5},
                decode_subscribe_ok,
                "47080000000500000000000000eba6e9f3");
}

TEST(MessageBytes, TenantAlert) {
  expect_pinned(FrameType::kTenantAlert,
                TenantAlert{.sequence = 1,
                            .kind = "zone_violated",
                            .run_id = 11,
                            .epoch = 3,
                            .zone = 2,
                            .detail = "theft",
                            .missing = kPinnedIds},
                decode_tenant_alert,
                "485600000001000000000000000d0000007a6f6e655f76696f6c6174"
                "65640b00000000000000030000000000000002000000000000000500"
                "0000746865667402000000010000000200000000000000efbeaddeef"
                "cdab89674523019d0f8fdc");
}

TEST(MessageBytes, ErrorMsg) {
  expect_pinned(FrameType::kError,
                ErrorMsg{.code = ErrorCode::kBadRequest, .message = "bad"},
                decode_error,
                "4b0b0000001200000003000000626164a39b2001");
}

TEST(MessageBytes, ShutdownMsg) {
  expect_pinned(FrameType::kShutdown, ShutdownMsg{.drain_ms = 1500},
                decode_shutdown,
                "4c08000000dc0500000000000008679fd0");
}

// ---- the same attacks against a live service over loopback ----

class LiveServiceFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig config;
    config.max_frame_bytes = 4096;
    service_ = std::make_unique<MonitorService>(config);
    service_->start();
  }
  void TearDown() override { service_->stop(); }

  /// Reads frames until the peer closes; returns the last kError seen.
  ErrorCode drain_to_close(ServiceClient& client) {
    ErrorCode last = ErrorCode::kNone;
    try {
      for (;;) {
        const Frame frame = client.read_frame();
        if (static_cast<FrameType>(frame.type) == FrameType::kError) {
          last = decode_error(frame.payload).code;
        }
      }
    } catch (const std::runtime_error&) {
      // connection closed (or receive timeout) — both end the drain
    }
    return last;
  }

  std::unique_ptr<MonitorService> service_;
};

TEST_F(LiveServiceFrameTest, OversizedFrameGetsTypedErrorThenClose) {
  ServiceClient client(service_->port(), std::chrono::milliseconds(2000));
  std::byte header[5];
  header[0] = static_cast<std::byte>(FrameType::kHello);
  const std::uint32_t huge = 0x7fffffffu;
  std::memcpy(header + 1, &huge, sizeof(huge));
  client.send_raw(header);
  EXPECT_EQ(drain_to_close(client), ErrorCode::kOversizedFrame);
}

TEST_F(LiveServiceFrameTest, BadChecksumGetsTypedErrorThenClose) {
  ServiceClient client(service_->port(), std::chrono::milliseconds(2000));
  std::vector<std::byte> bent = hello_frame();
  bent.back() ^= std::byte{0xff};
  client.send_raw(bent);
  EXPECT_EQ(drain_to_close(client), ErrorCode::kBadChecksum);
}

TEST_F(LiveServiceFrameTest, UnknownTypeAfterHelloClosesConnection) {
  ServiceClient client(service_->port(), std::chrono::milliseconds(2000));
  client.hello("t");
  client.send_frame(static_cast<FrameType>(0x33), {});
  EXPECT_EQ(drain_to_close(client), ErrorCode::kUnknownType);
}

TEST_F(LiveServiceFrameTest, MalformedPayloadGetsTypedErrorThenClose) {
  // Well-framed but undecodable: a 3-byte Hello body. Framing-level per
  // the grammar contract — typed error, then the connection closes.
  ServiceClient client(service_->port(), std::chrono::milliseconds(2000));
  const std::byte junk[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
  client.send_frame(FrameType::kHello, junk);
  EXPECT_EQ(drain_to_close(client), ErrorCode::kMalformedPayload);
}

TEST_F(LiveServiceFrameTest, SlowTrickleHandshakeSucceeds) {
  // One byte per send: the server-side incremental parser must assemble
  // the frame across ~20 reads without ever blocking its IO loop.
  ServiceClient client(service_->port(), std::chrono::milliseconds(5000));
  const std::vector<std::byte> wire = hello_frame("slow");
  for (const std::byte b : wire) client.send_raw({&b, 1});
  const Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<FrameType>(frame.type), FrameType::kHelloOk);
  EXPECT_NE(decode_hello_ok(frame.payload).session_id, 0u);
}

TEST_F(LiveServiceFrameTest, GarbageFloodNeverWedgesTheService) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 8; ++i) {
    ServiceClient client(service_->port(), std::chrono::milliseconds(1000));
    std::vector<std::byte> junk(512);
    for (std::byte& b : junk) b = static_cast<std::byte>(rng() & 0xff);
    client.send_raw(junk);
    (void)drain_to_close(client);
  }
  // The service survived eight hostile peers: a fresh clean session works.
  ServiceClient clean(service_->port(), std::chrono::milliseconds(2000));
  EXPECT_NE(clean.hello("survivor").session_id, 0u);
}

}  // namespace
