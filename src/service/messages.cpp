#include "service/messages.h"

#include "util/codec.h"

namespace rfid::service {

namespace {

using util::Decoder;
using util::Encoder;

void put_tag_ids(Encoder& enc, const std::vector<tag::TagId>& ids) {
  enc.put_u32(static_cast<std::uint32_t>(ids.size()));
  for (const tag::TagId& id : ids) {
    enc.put_u32(id.hi());
    enc.put_u64(id.lo());
  }
}

std::vector<tag::TagId> get_tag_ids(Decoder& dec) {
  const std::size_t count = dec.get_count(12);
  std::vector<tag::TagId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t hi = dec.get_u32();
    const std::uint64_t lo = dec.get_u64();
    ids.emplace_back(hi, lo);
  }
  return ids;
}

void put_u64s(Encoder& enc, const std::vector<std::uint64_t>& values) {
  enc.put_u32(static_cast<std::uint32_t>(values.size()));
  for (const std::uint64_t v : values) enc.put_u64(v);
}

std::vector<std::uint64_t> get_u64s(Decoder& dec) {
  const std::size_t count = dec.get_count(8);
  std::vector<std::uint64_t> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) values.push_back(dec.get_u64());
  return values;
}

}  // namespace

std::vector<std::byte> encode(const HelloRequest& m) {
  Encoder enc;
  enc.put_u32(m.version);
  enc.put_string(m.tenant);
  return std::move(enc).take();
}

HelloRequest decode_hello(std::span<const std::byte> payload) {
  Decoder dec(payload);
  HelloRequest m;
  m.version = dec.get_u32();
  m.tenant = dec.get_string();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const HelloOk& m) {
  Encoder enc;
  enc.put_u32(m.version);
  enc.put_u64(m.session_id);
  enc.put_u32(m.max_frame_bytes);
  enc.put_u64(m.token_capacity);
  enc.put_u64(m.max_inflight_per_tenant);
  return std::move(enc).take();
}

HelloOk decode_hello_ok(std::span<const std::byte> payload) {
  Decoder dec(payload);
  HelloOk m;
  m.version = dec.get_u32();
  m.session_id = dec.get_u64();
  m.max_frame_bytes = dec.get_u32();
  m.token_capacity = dec.get_u64();
  m.max_inflight_per_tenant = dec.get_u64();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const EnrollRequest& m) {
  Encoder enc;
  enc.put_string(m.inventory);
  enc.put_u8(m.protocol);
  enc.put_u64(m.tolerance);
  enc.put_f64(m.alpha);
  enc.put_u64(m.zone_capacity);
  enc.put_u64(m.rounds);
  put_tag_ids(enc, m.tags);
  return std::move(enc).take();
}

EnrollRequest decode_enroll(std::span<const std::byte> payload) {
  Decoder dec(payload);
  EnrollRequest m;
  m.inventory = dec.get_string();
  m.protocol = dec.get_u8();
  m.tolerance = dec.get_u64();
  m.alpha = dec.get_f64();
  m.zone_capacity = dec.get_u64();
  m.rounds = dec.get_u64();
  m.tags = get_tag_ids(dec);
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const EnrollOk& m) {
  Encoder enc;
  enc.put_string(m.inventory);
  enc.put_u64(m.tags);
  enc.put_u64(m.zones);
  enc.put_u64(m.total_slots);
  return std::move(enc).take();
}

EnrollOk decode_enroll_ok(std::span<const std::byte> payload) {
  Decoder dec(payload);
  EnrollOk m;
  m.inventory = dec.get_string();
  m.tags = dec.get_u64();
  m.zones = dec.get_u64();
  m.total_slots = dec.get_u64();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const StartRunRequest& m) {
  Encoder enc;
  enc.put_string(m.inventory);
  enc.put_u64(m.seed);
  enc.put_bool(m.identify);
  put_u64s(enc, m.stolen);
  return std::move(enc).take();
}

StartRunRequest decode_start_run(std::span<const std::byte> payload) {
  Decoder dec(payload);
  StartRunRequest m;
  m.inventory = dec.get_string();
  m.seed = dec.get_u64();
  m.identify = dec.get_bool();
  m.stolen = get_u64s(dec);
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const StartWatchRequest& m) {
  Encoder enc;
  enc.put_string(m.inventory);
  enc.put_u64(m.seed);
  enc.put_u64(m.epochs);
  enc.put_bool(m.identify);
  enc.put_u64(m.steal_epoch);
  enc.put_u64(m.steal);
  enc.put_u64(m.steal_from);
  return std::move(enc).take();
}

StartWatchRequest decode_start_watch(std::span<const std::byte> payload) {
  Decoder dec(payload);
  StartWatchRequest m;
  m.inventory = dec.get_string();
  m.seed = dec.get_u64();
  m.epochs = dec.get_u64();
  m.identify = dec.get_bool();
  m.steal_epoch = dec.get_u64();
  m.steal = dec.get_u64();
  m.steal_from = dec.get_u64();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const RunAdmitted& m) {
  Encoder enc;
  enc.put_u64(m.run_id);
  enc.put_u8(m.admission);
  enc.put_u64(m.queue_depth);
  return std::move(enc).take();
}

RunAdmitted decode_run_admitted(std::span<const std::byte> payload) {
  Decoder dec(payload);
  RunAdmitted m;
  m.run_id = dec.get_u64();
  m.admission = dec.get_u8();
  m.queue_depth = dec.get_u64();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const Backpressure& m) {
  Encoder enc;
  enc.put_u64(m.retry_after_ms);
  enc.put_string(m.reason);
  return std::move(enc).take();
}

Backpressure decode_backpressure(std::span<const std::byte> payload) {
  Decoder dec(payload);
  Backpressure m;
  m.retry_after_ms = dec.get_u64();
  m.reason = dec.get_string();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const RunVerdictMsg& m) {
  Encoder enc;
  enc.put_u64(m.run_id);
  enc.put_string(m.inventory);
  enc.put_u8(m.verdict);
  enc.put_u64(m.zones);
  enc.put_u64(m.zones_violated);
  enc.put_u64(m.attempts);
  enc.put_u64(m.tags_named);
  enc.put_bool(m.aborted);
  put_tag_ids(enc, m.missing);
  return std::move(enc).take();
}

RunVerdictMsg decode_run_verdict(std::span<const std::byte> payload) {
  Decoder dec(payload);
  RunVerdictMsg m;
  m.run_id = dec.get_u64();
  m.inventory = dec.get_string();
  m.verdict = dec.get_u8();
  m.zones = dec.get_u64();
  m.zones_violated = dec.get_u64();
  m.attempts = dec.get_u64();
  m.tags_named = dec.get_u64();
  m.aborted = dec.get_bool();
  m.missing = get_tag_ids(dec);
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const RunAlertMsg& m) {
  Encoder enc;
  enc.put_u64(m.run_id);
  enc.put_string(m.kind);
  enc.put_string(m.inventory);
  enc.put_u64(m.zone);
  enc.put_string(m.detail);
  return std::move(enc).take();
}

RunAlertMsg decode_run_alert(std::span<const std::byte> payload) {
  Decoder dec(payload);
  RunAlertMsg m;
  m.run_id = dec.get_u64();
  m.kind = dec.get_string();
  m.inventory = dec.get_string();
  m.zone = dec.get_u64();
  m.detail = dec.get_string();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const WatchDone& m) {
  Encoder enc;
  enc.put_u64(m.run_id);
  enc.put_u64(m.epochs_completed);
  enc.put_u64(m.alerts);
  enc.put_bool(m.gave_up);
  return std::move(enc).take();
}

WatchDone decode_watch_done(std::span<const std::byte> payload) {
  Decoder dec(payload);
  WatchDone m;
  m.run_id = dec.get_u64();
  m.epochs_completed = dec.get_u64();
  m.alerts = dec.get_u64();
  m.gave_up = dec.get_bool();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const SubscribeOk& m) {
  Encoder enc;
  enc.put_u64(m.backlog);
  return std::move(enc).take();
}

SubscribeOk decode_subscribe_ok(std::span<const std::byte> payload) {
  Decoder dec(payload);
  SubscribeOk m;
  m.backlog = dec.get_u64();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const TenantAlert& m) {
  Encoder enc;
  enc.put_u64(m.sequence);
  enc.put_string(m.kind);
  enc.put_u64(m.run_id);
  enc.put_u64(m.epoch);
  enc.put_u64(m.zone);
  enc.put_string(m.detail);
  put_tag_ids(enc, m.missing);
  return std::move(enc).take();
}

TenantAlert decode_tenant_alert(std::span<const std::byte> payload) {
  Decoder dec(payload);
  TenantAlert m;
  m.sequence = dec.get_u64();
  m.kind = dec.get_string();
  m.run_id = dec.get_u64();
  m.epoch = dec.get_u64();
  m.zone = dec.get_u64();
  m.detail = dec.get_string();
  m.missing = get_tag_ids(dec);
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const PingMsg& m) {
  Encoder enc;
  enc.put_u64(m.nonce);
  return std::move(enc).take();
}

PingMsg decode_ping(std::span<const std::byte> payload) {
  Decoder dec(payload);
  PingMsg m;
  m.nonce = dec.get_u64();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const ErrorMsg& m) {
  Encoder enc;
  enc.put_u32(static_cast<std::uint32_t>(m.code));
  enc.put_string(m.message);
  return std::move(enc).take();
}

ErrorMsg decode_error(std::span<const std::byte> payload) {
  Decoder dec(payload);
  ErrorMsg m;
  m.code = static_cast<ErrorCode>(dec.get_u32());
  m.message = dec.get_string();
  dec.expect_exhausted();
  return m;
}

std::vector<std::byte> encode(const ShutdownMsg& m) {
  Encoder enc;
  enc.put_u64(m.drain_ms);
  return std::move(enc).take();
}

ShutdownMsg decode_shutdown(std::span<const std::byte> payload) {
  Decoder dec(payload);
  ShutdownMsg m;
  m.drain_ms = dec.get_u64();
  dec.expect_exhausted();
  return m;
}

}  // namespace rfid::service
