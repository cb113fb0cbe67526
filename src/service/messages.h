// Payload schemas for every service frame type.
//
// Encoding reuses util/codec.h primitives (little-endian fixed-width ints,
// u32-length-prefixed strings), so the service speaks the same byte dialect
// as the reader link and the storage journals. Every decode_* throws
// std::invalid_argument on a truncated or trailing-garbage payload — the
// dispatcher maps that to the typed kMalformedPayload error instead of
// crashing the connection handler.
//
// Vector fields are count-prefixed (u32) and the counts are validated
// against the remaining payload before any reservation
// (Decoder::get_count), so a forged count cannot allocate unboundedly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/framing.h"
#include "tag/tag_id.h"

namespace rfid::service {

// ------------------------------------------------------------- session ----

struct HelloRequest {
  std::uint32_t version = kProtocolVersion;
  std::string tenant;
};

struct HelloOk {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t session_id = 0;
  std::uint32_t max_frame_bytes = 0;
  /// Admission limits, advertised so a well-behaved client can pace itself.
  std::uint64_t token_capacity = 0;
  std::uint64_t max_inflight_per_tenant = 0;
};

// ---------------------------------------------------------- enrollment ----

struct EnrollRequest {
  std::string inventory;
  std::uint8_t protocol = 0;  // fleet::Protocol
  std::uint64_t tolerance = 1;
  double alpha = 0.95;
  std::uint64_t zone_capacity = 0;  // 0 = single zone
  std::uint64_t rounds = 1;
  std::vector<tag::TagId> tags;
};

struct EnrollOk {
  std::string inventory;
  std::uint64_t tags = 0;
  std::uint64_t zones = 0;
  std::uint64_t total_slots = 0;  // planned Eq. (2) frame budget
};

// ---------------------------------------------------------------- runs ----

struct StartRunRequest {
  std::string inventory;
  std::uint64_t seed = 1;
  bool identify = false;  // PR 9 drill-down: name the stolen tags
  /// Enrolled-order indices of tags physically absent for this run (the
  /// simulated theft; a real deployment would simply scan).
  std::vector<std::uint64_t> stolen;
};

/// One continuous-monitoring watch: a MonitorDaemon driven for `epochs`
/// epochs over a population of the enrolled inventory's shape, publishing
/// its durable alert history to the tenant's alert feed.
struct StartWatchRequest {
  std::string inventory;
  std::uint64_t seed = 1;
  std::uint64_t epochs = 3;
  bool identify = false;
  /// Scripted theft: `steal` tags vanish starting at population index
  /// `steal_from` at epoch `steal_epoch` (0 = no theft).
  std::uint64_t steal_epoch = 1;
  std::uint64_t steal = 0;
  std::uint64_t steal_from = 0;
};

struct RunAdmitted {
  std::uint64_t run_id = 0;
  std::uint8_t admission = 0;  // fleet::Admission (accepted | deferred)
  std::uint64_t queue_depth = 0;  // deferred: position in the deferred queue
};

/// Explicit backpressure (the rejected admission): the request was NOT
/// queued; retry after the hint instead of hammering.
struct Backpressure {
  std::uint64_t retry_after_ms = 0;
  std::string reason;
};

struct RunVerdictMsg {
  std::uint64_t run_id = 0;
  std::string inventory;
  std::uint8_t verdict = 0;  // fleet::GlobalVerdict
  std::uint64_t zones = 0;
  std::uint64_t zones_violated = 0;
  std::uint64_t attempts = 0;
  std::uint64_t tags_named = 0;
  bool aborted = false;
  /// Stolen tags named by the identification drill-down, enrolled order.
  std::vector<tag::TagId> missing;
};

struct RunAlertMsg {
  std::uint64_t run_id = 0;
  std::string kind;  // fleet::AlertKind rendering
  std::string inventory;
  std::uint64_t zone = 0;
  std::string detail;
};

struct WatchDone {
  std::uint64_t run_id = 0;
  std::uint64_t epochs_completed = 0;
  std::uint64_t alerts = 0;
  bool gave_up = false;
};

// -------------------------------------------------------------- alerts ----

struct SubscribeOk {
  std::uint64_t backlog = 0;  // retained feed entries about to replay
};

/// One entry of a tenant's alert feed: daemon alerts from watches plus
/// per-run violation/escalation alerts, in per-tenant sequence order.
struct TenantAlert {
  std::uint64_t sequence = 0;
  std::string kind;
  std::uint64_t run_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t zone = 0;
  std::string detail;
  std::vector<tag::TagId> missing;  // named stolen tags, when identified
};

// ------------------------------------------------------------- control ----

struct PingMsg {
  std::uint64_t nonce = 0;
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

struct ShutdownMsg {
  std::uint64_t drain_ms = 0;  // how long the server will wait for drains
};

// -------------------------------------------------------- encode/decode ----

[[nodiscard]] std::vector<std::byte> encode(const HelloRequest& m);
[[nodiscard]] std::vector<std::byte> encode(const HelloOk& m);
[[nodiscard]] std::vector<std::byte> encode(const EnrollRequest& m);
[[nodiscard]] std::vector<std::byte> encode(const EnrollOk& m);
[[nodiscard]] std::vector<std::byte> encode(const StartRunRequest& m);
[[nodiscard]] std::vector<std::byte> encode(const StartWatchRequest& m);
[[nodiscard]] std::vector<std::byte> encode(const RunAdmitted& m);
[[nodiscard]] std::vector<std::byte> encode(const Backpressure& m);
[[nodiscard]] std::vector<std::byte> encode(const RunVerdictMsg& m);
[[nodiscard]] std::vector<std::byte> encode(const RunAlertMsg& m);
[[nodiscard]] std::vector<std::byte> encode(const WatchDone& m);
[[nodiscard]] std::vector<std::byte> encode(const SubscribeOk& m);
[[nodiscard]] std::vector<std::byte> encode(const TenantAlert& m);
[[nodiscard]] std::vector<std::byte> encode(const PingMsg& m);
[[nodiscard]] std::vector<std::byte> encode(const ErrorMsg& m);
[[nodiscard]] std::vector<std::byte> encode(const ShutdownMsg& m);

[[nodiscard]] HelloRequest decode_hello(std::span<const std::byte> payload);
[[nodiscard]] HelloOk decode_hello_ok(std::span<const std::byte> payload);
[[nodiscard]] EnrollRequest decode_enroll(std::span<const std::byte> payload);
[[nodiscard]] EnrollOk decode_enroll_ok(std::span<const std::byte> payload);
[[nodiscard]] StartRunRequest decode_start_run(
    std::span<const std::byte> payload);
[[nodiscard]] StartWatchRequest decode_start_watch(
    std::span<const std::byte> payload);
[[nodiscard]] RunAdmitted decode_run_admitted(
    std::span<const std::byte> payload);
[[nodiscard]] Backpressure decode_backpressure(
    std::span<const std::byte> payload);
[[nodiscard]] RunVerdictMsg decode_run_verdict(
    std::span<const std::byte> payload);
[[nodiscard]] RunAlertMsg decode_run_alert(std::span<const std::byte> payload);
[[nodiscard]] WatchDone decode_watch_done(std::span<const std::byte> payload);
[[nodiscard]] SubscribeOk decode_subscribe_ok(
    std::span<const std::byte> payload);
[[nodiscard]] TenantAlert decode_tenant_alert(
    std::span<const std::byte> payload);
[[nodiscard]] PingMsg decode_ping(std::span<const std::byte> payload);
[[nodiscard]] ErrorMsg decode_error(std::span<const std::byte> payload);
[[nodiscard]] ShutdownMsg decode_shutdown(std::span<const std::byte> payload);

}  // namespace rfid::service
