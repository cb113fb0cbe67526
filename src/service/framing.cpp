#include "service/framing.h"

#include "util/codec.h"
#include "util/expect.h"

namespace rfid::service {

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

void put(util::Encoder& out, ErrorCode code) {
  out.put_u32(static_cast<std::uint32_t>(code));
}

void get(util::Decoder& in, ErrorCode& code) {
  const std::uint32_t raw = in.get_u32();
  RFID_EXPECT(raw <= 0xffffu, "bad error code");
  code = static_cast<ErrorCode>(raw);
}

ErrorCode FrameReader::feed(std::span<const std::byte> data,
                            std::vector<Frame>& out) {
  if (poisoned_) return ErrorCode::kNone;  // connection already condemned
  buffer_.insert(buffer_.end(), data.begin(), data.end());

  for (;;) {
    const wire::ParsedFrame parsed = wire::parse_frame(
        std::span<const std::byte>(buffer_).subspan(consumed_), max_payload_);
    if (parsed.status == wire::ParsedFrame::kIncomplete) break;
    if (parsed.status != wire::ParsedFrame::kComplete) {
      poisoned_ = true;
      return parsed.status == wire::ParsedFrame::kOversized ? ErrorCode::kOversizedFrame
                                                             : ErrorCode::kBadChecksum;
    }
    const std::span<const std::byte> payload = parsed.frame.payload;
    out.push_back(Frame{parsed.frame.type, {payload.begin(), payload.end()}});
    consumed_ += parsed.size;
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
