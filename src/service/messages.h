// Payload schemas for every service frame type.
//
// Each message lists its fields in wire order, and util/codec.h walks that
// one list to encode and to decode, so the service speaks the byte dialect
// of the reader link and the storage journals: little-endian fixed-width
// integers, u32-length strings, u32-counted lists whose counts are checked
// against the remaining payload before anything is reserved. Every decode_*
// throws std::invalid_argument on a truncated, malformed or trailing-garbage
// payload — the dispatcher maps that to the typed kMalformedPayload error
// instead of crashing the connection handler.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "service/framing.h"
#include "tag/tag_id.h"
#include "util/codec.h"

namespace rfid::service {

// ------------------------------------------------------------- session ----

struct HelloRequest {
  std::uint32_t version = kProtocolVersion;
  std::string tenant;

  static auto fields(auto& m) { return std::tie(m.version, m.tenant); }
};

struct HelloOk {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t session_id = 0;
  std::uint32_t max_frame_bytes = 0;
  /// Admission limits, advertised so a well-behaved client can pace itself.
  std::uint64_t token_capacity = 0;
  std::uint64_t max_inflight_per_tenant = 0;

  static auto fields(auto& m) {
    return std::tie(m.version, m.session_id, m.max_frame_bytes,
                    m.token_capacity, m.max_inflight_per_tenant);
  }
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

  static auto fields(auto& m) {
    return std::tie(m.inventory, m.protocol, m.tolerance, m.alpha,
                    m.zone_capacity, m.rounds, m.tags);
  }
};

struct EnrollOk {
  std::string inventory;
  std::uint64_t tags = 0;
  std::uint64_t zones = 0;
  std::uint64_t total_slots = 0;  // planned Eq. (2) frame budget

  static auto fields(auto& m) {
    return std::tie(m.inventory, m.tags, m.zones, m.total_slots);
  }
};

// ---------------------------------------------------------------- runs ----

struct StartRunRequest {
  std::string inventory;
  std::uint64_t seed = 1;
  bool identify = false;  // PR 9 drill-down: name the stolen tags
  /// Enrolled-order indices of tags physically absent for this run (the
  /// simulated theft; a real deployment would simply scan).
  std::vector<std::uint64_t> stolen;

  static auto fields(auto& m) {
    return std::tie(m.inventory, m.seed, m.identify, m.stolen);
  }
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

  static auto fields(auto& m) {
    return std::tie(m.inventory, m.seed, m.epochs, m.identify, m.steal_epoch,
                    m.steal, m.steal_from);
  }
};

struct RunAdmitted {
  std::uint64_t run_id = 0;
  std::uint8_t admission = 0;  // fleet::Admission (accepted | deferred)
  std::uint64_t queue_depth = 0;  // deferred: position in the deferred queue

  static auto fields(auto& m) {
    return std::tie(m.run_id, m.admission, m.queue_depth);
  }
};

/// Explicit backpressure (the rejected admission): the request was NOT
/// queued; retry after the hint instead of hammering.
struct Backpressure {
  std::uint64_t retry_after_ms = 0;
  std::string reason;

  static auto fields(auto& m) { return std::tie(m.retry_after_ms, m.reason); }
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

  static auto fields(auto& m) {
    return std::tie(m.run_id, m.inventory, m.verdict, m.zones,
                    m.zones_violated, m.attempts, m.tags_named, m.aborted,
                    m.missing);
  }
};

struct RunAlertMsg {
  std::uint64_t run_id = 0;
  std::string kind;  // fleet::AlertKind rendering
  std::string inventory;
  std::uint64_t zone = 0;
  std::string detail;

  static auto fields(auto& m) {
    return std::tie(m.run_id, m.kind, m.inventory, m.zone, m.detail);
  }
};

struct WatchDone {
  std::uint64_t run_id = 0;
  std::uint64_t epochs_completed = 0;
  std::uint64_t alerts = 0;
  bool gave_up = false;

  static auto fields(auto& m) {
    return std::tie(m.run_id, m.epochs_completed, m.alerts, m.gave_up);
  }
};

// -------------------------------------------------------------- alerts ----

struct SubscribeOk {
  std::uint64_t backlog = 0;  // retained feed entries about to replay

  static auto fields(auto& m) { return std::tie(m.backlog); }
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

  static auto fields(auto& m) {
    return std::tie(m.sequence, m.kind, m.run_id, m.epoch, m.zone, m.detail,
                    m.missing);
  }
};

// ------------------------------------------------------------- control ----

struct PingMsg {
  std::uint64_t nonce = 0;

  static auto fields(auto& m) { return std::tie(m.nonce); }
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kNone;
  std::string message;

  static auto fields(auto& m) { return std::tie(m.code, m.message); }
};

struct ShutdownMsg {
  std::uint64_t drain_ms = 0;  // how long the server will wait for drains

  static auto fields(auto& m) { return std::tie(m.drain_ms); }
};

// -------------------------------------------------------- encode/decode ----

/// The payload of any message above.
template <class Message>
  requires util::HasFields<Message>
[[nodiscard]] std::vector<std::byte> encode(const Message& m) {
  return util::encode(m);
}

[[nodiscard]] inline HelloRequest decode_hello(std::span<const std::byte> payload) {
  return util::decode<HelloRequest>(payload);
}

[[nodiscard]] inline HelloOk decode_hello_ok(std::span<const std::byte> payload) {
  return util::decode<HelloOk>(payload);
}

[[nodiscard]] inline EnrollRequest decode_enroll(std::span<const std::byte> payload) {
  return util::decode<EnrollRequest>(payload);
}

[[nodiscard]] inline EnrollOk decode_enroll_ok(std::span<const std::byte> payload) {
  return util::decode<EnrollOk>(payload);
}

[[nodiscard]] inline StartRunRequest decode_start_run(
    std::span<const std::byte> payload) {
  return util::decode<StartRunRequest>(payload);
}

[[nodiscard]] inline StartWatchRequest decode_start_watch(
    std::span<const std::byte> payload) {
  return util::decode<StartWatchRequest>(payload);
}

[[nodiscard]] inline RunAdmitted decode_run_admitted(
    std::span<const std::byte> payload) {
  return util::decode<RunAdmitted>(payload);
}

[[nodiscard]] inline Backpressure decode_backpressure(
    std::span<const std::byte> payload) {
  return util::decode<Backpressure>(payload);
}

[[nodiscard]] inline RunVerdictMsg decode_run_verdict(
    std::span<const std::byte> payload) {
  return util::decode<RunVerdictMsg>(payload);
}

[[nodiscard]] inline RunAlertMsg decode_run_alert(std::span<const std::byte> payload) {
  return util::decode<RunAlertMsg>(payload);
}

[[nodiscard]] inline WatchDone decode_watch_done(std::span<const std::byte> payload) {
  return util::decode<WatchDone>(payload);
}

[[nodiscard]] inline SubscribeOk decode_subscribe_ok(
    std::span<const std::byte> payload) {
  return util::decode<SubscribeOk>(payload);
}

[[nodiscard]] inline TenantAlert decode_tenant_alert(
    std::span<const std::byte> payload) {
  return util::decode<TenantAlert>(payload);
}

[[nodiscard]] inline PingMsg decode_ping(std::span<const std::byte> payload) {
  return util::decode<PingMsg>(payload);
}

[[nodiscard]] inline ErrorMsg decode_error(std::span<const std::byte> payload) {
  return util::decode<ErrorMsg>(payload);
}

[[nodiscard]] inline ShutdownMsg decode_shutdown(std::span<const std::byte> payload) {
  return util::decode<ShutdownMsg>(payload);
}

}  // namespace rfid::service
