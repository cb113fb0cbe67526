#include "storage/journal.h"

#include <span>

#include "storage/record_log.h"
#include "util/codec.h"
#include "util/expect.h"

namespace rfid::storage {

namespace {

using util::Decoder;
using util::Encoder;

// Payload type discriminator (first payload byte).
enum class RecordKind : std::uint8_t {
  kEnroll = 1,
  kTrpRound = 2,
  kUtrpRound = 3,
  kResync = 4,
};

// Encoded size of one tag: u32 id hi, u64 id lo, u64 counter.
constexpr std::size_t kTagBytes = 4 + 8 + 8;

void put_tags(Encoder& w, const tag::TagSet& tags) {
  w.put_u64(tags.size());
  for (const tag::Tag& t : tags.tags()) {
    w.put_u32(t.id().hi());
    w.put_u64(t.id().lo());
    w.put_u64(t.counter());
  }
}

[[nodiscard]] tag::TagSet get_tags(Decoder& r) {
  const std::size_t count = r.get_count<std::uint64_t>(kTagBytes);
  std::vector<tag::Tag> tags;
  tags.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t hi = r.get_u32();
    const std::uint64_t lo = r.get_u64();
    const std::uint64_t counter = r.get_u64();
    tags.emplace_back(tag::TagId(hi, lo), counter);
  }
  return tag::TagSet(std::move(tags));
}

void put_bitstring(Encoder& w, const bits::Bitstring& b) {
  w.put_u64(b.size());
  w.put_string(b.to_hex());
}

[[nodiscard]] bits::Bitstring get_bitstring(Decoder& r) {
  const std::uint64_t size = r.get_u64();
  return bits::Bitstring::from_hex(size, r.get_string());
}

[[nodiscard]] std::vector<std::byte> encode_payload(const JournalRecord& record) {
  Encoder w;
  if (const auto* enroll = std::get_if<EnrollRecord>(&record)) {
    w.put_u8(static_cast<std::uint8_t>(RecordKind::kEnroll));
    w.put_u8(static_cast<std::uint8_t>(enroll->config.protocol));
    w.put_u64(enroll->config.policy.tolerated_missing);
    w.put_f64(enroll->config.policy.confidence);
    w.put_u8(static_cast<std::uint8_t>(enroll->config.policy.model));
    w.put_u64(enroll->config.comm_budget);
    w.put_u32(enroll->config.slack_slots);
    w.put_string(enroll->config.name);
    put_tags(w, enroll->tags);
  } else if (const auto* trp = std::get_if<TrpRoundRecord>(&record)) {
    w.put_u8(static_cast<std::uint8_t>(RecordKind::kTrpRound));
    w.put_u64(trp->group);
    w.put_u32(trp->challenge.frame_size);
    w.put_u64(trp->challenge.r);
    put_bitstring(w, trp->reported);
  } else if (const auto* utrp = std::get_if<UtrpRoundRecord>(&record)) {
    w.put_u8(static_cast<std::uint8_t>(RecordKind::kUtrpRound));
    w.put_u64(utrp->group);
    w.put_u32(utrp->challenge.frame_size);
    w.put_u32(static_cast<std::uint32_t>(utrp->challenge.seeds.size()));
    for (const std::uint64_t seed : utrp->challenge.seeds) w.put_u64(seed);
    w.put_bool(utrp->deadline_met);
    put_bitstring(w, utrp->reported);
  } else {
    const auto& resync = std::get<ResyncRecord>(record);
    w.put_u8(static_cast<std::uint8_t>(RecordKind::kResync));
    w.put_u64(resync.group);
    put_tags(w, resync.audited);
  }
  return std::move(w).take();
}

[[nodiscard]] JournalRecord decode_payload(std::span<const std::byte> payload) {
  Decoder r(payload);
  JournalRecord record;
  switch (static_cast<RecordKind>(r.get_u8())) {
    case RecordKind::kEnroll: {
      EnrollRecord enroll;
      const auto protocol = r.get_u8();
      RFID_EXPECT(protocol <= 1, "bad protocol kind in enroll record");
      enroll.config.protocol = static_cast<server::ProtocolKind>(protocol);
      enroll.config.policy.tolerated_missing = r.get_u64();
      enroll.config.policy.confidence = r.get_f64();
      const auto model = r.get_u8();
      RFID_EXPECT(model <= 1, "bad slot model in enroll record");
      enroll.config.policy.model = static_cast<math::EmptySlotModel>(model);
      enroll.config.comm_budget = r.get_u64();
      enroll.config.slack_slots = r.get_u32();
      enroll.config.name = r.get_string();
      enroll.tags = get_tags(r);
      record = std::move(enroll);
      break;
    }
    case RecordKind::kTrpRound: {
      TrpRoundRecord trp;
      trp.group = r.get_u64();
      trp.challenge.frame_size = r.get_u32();
      trp.challenge.r = r.get_u64();
      trp.reported = get_bitstring(r);
      record = std::move(trp);
      break;
    }
    case RecordKind::kUtrpRound: {
      UtrpRoundRecord utrp;
      utrp.group = r.get_u64();
      utrp.challenge.frame_size = r.get_u32();
      const std::size_t seeds = r.get_count(8);
      utrp.challenge.seeds.reserve(seeds);
      for (std::size_t i = 0; i < seeds; ++i) utrp.challenge.seeds.push_back(r.get_u64());
      utrp.deadline_met = r.get_bool();
      utrp.reported = get_bitstring(r);
      record = std::move(utrp);
      break;
    }
    case RecordKind::kResync: {
      ResyncRecord resync;
      resync.group = r.get_u64();
      resync.audited = get_tags(r);
      record = std::move(resync);
      break;
    }
    default:
      RFID_EXPECT(false, "unknown journal record kind");
  }
  r.expect_exhausted();
  return record;
}

}  // namespace

std::string encode_record(const JournalRecord& record) {
  return frame_record(encode_payload(record));
}

JournalScan scan_journal(std::string_view bytes) {
  return scan_record_log<JournalScan>(bytes, kJournalMagic, decode_payload);
}

}  // namespace rfid::storage
