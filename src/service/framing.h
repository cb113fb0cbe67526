// The service frame: the unit of exchange on a client connection. It is the
// frame of wire/frame.h with a FrameType in its type byte. TCP delivers a
// byte stream, not frames, so FrameReader is incremental: it accepts bytes
// in whatever pieces the kernel hands over (a one-byte-at-a-time trickle
// included) and emits complete frames as they materialize.
//
// Error discipline — the satellite contract tests/service_frame_test.cpp
// enforces: malformed input NEVER crashes or hangs the reader. A declared
// length beyond max_payload is rejected *before* any allocation (a 4 GiB
// length prefix cannot balloon memory), a checksum mismatch poisons the
// reader, and a poisoned reader swallows everything else — the connection
// is already dead, the server just has not flushed the typed error yet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "wire/frame.h"

namespace rfid::util {
class Decoder;
class Encoder;
}  // namespace rfid::util

namespace rfid::service {

/// Wire protocol version spoken by this build (Hello negotiates it).
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Frame types. Client-to-server requests sit below 0x40, server-to-client
/// responses and stream frames above — a side that receives a frame from
/// the wrong half treats it as kUnknownType.
enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 0x01,
  kEnroll = 0x02,
  kStartRun = 0x03,
  kStartWatch = 0x04,
  kSubscribe = 0x05,
  kPing = 0x06,
  kGoodbye = 0x07,
  // server -> client
  kHelloOk = 0x41,
  kEnrollOk = 0x42,
  kRunAdmitted = 0x43,
  kBackpressure = 0x44,
  kRunVerdict = 0x45,
  kRunAlert = 0x46,
  kSubscribeOk = 0x47,
  kTenantAlert = 0x48,
  kWatchDone = 0x49,
  kPong = 0x4a,
  kError = 0x4b,
  kShutdown = 0x4c,
};

[[nodiscard]] std::string_view to_string(FrameType type) noexcept;

/// Typed protocol errors, carried in a kError frame. Codes below 0x10 are
/// framing-level (the connection closes after the error flushes); the rest
/// are request-level (the connection survives).
enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kOversizedFrame = 1,
  kBadChecksum = 2,
  kUnknownType = 3,
  kMalformedPayload = 4,
  kBadVersion = 5,
  // request-level
  kHelloRequired = 0x10,
  kUnknownInventory = 0x11,
  kBadRequest = 0x12,
  kShuttingDown = 0x13,
  kOverloaded = 0x14,
  kInternal = 0x15,  // a run failed server-side; the connection survives
};

[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

/// Codec layout (util/codec.h): the u16 code travels as a u32.
void put(util::Encoder& out, ErrorCode code);
void get(util::Decoder& in, ErrorCode& code);

[[nodiscard]] constexpr bool is_fatal(ErrorCode code) noexcept {
  return code != ErrorCode::kNone &&
         static_cast<std::uint16_t>(code) < 0x10;
}

struct Frame {
  std::uint8_t type = 0;  // raw: dispatch validates against FrameType
  std::vector<std::byte> payload;
};

/// Serializes one frame (header + payload + checksum).
[[nodiscard]] inline std::vector<std::byte> encode_frame(
    FrameType type, std::span<const std::byte> payload) {
  return wire::encode_frame(static_cast<std::uint8_t>(type), payload);
}

/// Incremental frame parser over a TCP byte stream.
class FrameReader {
 public:
  explicit FrameReader(std::uint32_t max_payload) : max_payload_(max_payload) {}

  /// Consumes `data`, appending every completed frame to `out`. Returns
  /// kNone, or the first fatal framing error — after which the reader is
  /// poisoned and all further input is discarded.
  [[nodiscard]] ErrorCode feed(std::span<const std::byte> data,
                               std::vector<Frame>& out);

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  /// Bytes buffered awaiting a complete frame (a truncated tail).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::uint32_t max_payload_;
  std::vector<std::byte> buffer_;
  std::size_t consumed_ = 0;  // parsed prefix, compacted lazily
  bool poisoned_ = false;
};

}  // namespace rfid::service
