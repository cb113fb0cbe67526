#include "service/framing.h"

#include <utility>

#include "hash/fnv.h"
#include "util/codec.h"

namespace rfid::service {

namespace {

constexpr std::size_t kHeaderBytes = 5;    // type:u8 + length:u32
constexpr std::size_t kChecksumBytes = 4;  // fnv1a32

}  // namespace

std::string_view to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kEnroll: return "enroll";
    case FrameType::kStartRun: return "start_run";
    case FrameType::kStartWatch: return "start_watch";
    case FrameType::kSubscribe: return "subscribe";
    case FrameType::kPing: return "ping";
    case FrameType::kGoodbye: return "goodbye";
    case FrameType::kHelloOk: return "hello_ok";
    case FrameType::kEnrollOk: return "enroll_ok";
    case FrameType::kRunAdmitted: return "run_admitted";
    case FrameType::kBackpressure: return "backpressure";
    case FrameType::kRunVerdict: return "run_verdict";
    case FrameType::kRunAlert: return "run_alert";
    case FrameType::kSubscribeOk: return "subscribe_ok";
    case FrameType::kTenantAlert: return "tenant_alert";
    case FrameType::kWatchDone: return "watch_done";
    case FrameType::kPong: return "pong";
    case FrameType::kError: return "error";
    case FrameType::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kOversizedFrame: return "oversized_frame";
    case ErrorCode::kBadChecksum: return "bad_checksum";
    case ErrorCode::kUnknownType: return "unknown_type";
    case ErrorCode::kMalformedPayload: return "malformed_payload";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kHelloRequired: return "hello_required";
    case ErrorCode::kUnknownInventory: return "unknown_inventory";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::vector<std::byte> encode_frame(FrameType type,
                                    std::span<const std::byte> payload) {
  util::Encoder frame;
  frame.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  // A length-prefixed byte string after the type byte is exactly the
  // type:u8 length:u32 payload layout.
  frame.put_u8(static_cast<std::uint8_t>(type));
  frame.put_bytes(payload);
  frame.put_u32(hash::fnv1a32(frame.bytes()));
  return std::move(frame).take();
}

ErrorCode FrameReader::feed(std::span<const std::byte> data,
                            std::vector<Frame>& out) {
  if (poisoned_) return ErrorCode::kNone;  // connection already condemned
  buffer_.insert(buffer_.end(), data.begin(), data.end());

  for (;;) {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < kHeaderBytes) break;
    const std::byte* head = buffer_.data() + consumed_;
    const std::uint32_t length = util::Decoder({head + 1, 4}).get_u32();
    // Reject a hostile length prefix before reserving a single byte for it.
    if (length > max_payload_) {
      poisoned_ = true;
      return ErrorCode::kOversizedFrame;
    }
    const std::size_t total = kHeaderBytes + length + kChecksumBytes;
    if (available < total) break;  // truncated tail: wait for more bytes
    const std::uint32_t declared =
        util::Decoder({head + kHeaderBytes + length, kChecksumBytes})
            .get_u32();
    const std::uint32_t actual = hash::fnv1a32(
        std::span<const std::byte>(head, kHeaderBytes + length));
    if (declared != actual) {
      poisoned_ = true;
      return ErrorCode::kBadChecksum;
    }
    Frame frame;
    frame.type = static_cast<std::uint8_t>(*head);
    frame.payload.assign(head + kHeaderBytes, head + kHeaderBytes + length);
    out.push_back(std::move(frame));
    consumed_ += total;
  }

  // Compact once the parsed prefix dominates, keeping feed() amortized O(n).
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return ErrorCode::kNone;
}

}  // namespace rfid::service
