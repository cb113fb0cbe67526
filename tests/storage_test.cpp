// Tests for the crash-consistent storage layer: backend semantics, journal
// framing (byte identity and hostile input for all three journal formats),
// full-state codec, and DurableInventoryServer recovery. The exhaustive
// crash-point sweep lives in storage_torture_test.cpp; these are the
// targeted unit tests.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>

#include "fault/storage_fault.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "storage/backend.h"
#include "storage/daemon_journal.h"
#include "storage/durable_server.h"
#include "storage/fleet_journal.h"
#include "storage/journal.h"
#include "storage/record_log.h"
#include "storage/server_state.h"
#include "tag/tag_set.h"
#include "util/codec.h"
#include "util/random.h"

namespace {

using rfid::fault::CrashInjected;
using rfid::fault::FaultyBackend;
using rfid::fault::StorageFaultPlan;
using rfid::server::GroupConfig;
using rfid::server::GroupId;
using rfid::server::InventoryServer;
using rfid::server::ProtocolKind;
using rfid::storage::DurabilityConfig;
using rfid::storage::DurableInventoryServer;
using rfid::storage::EnrollRecord;
using rfid::storage::FileBackend;
using rfid::storage::IoError;
using rfid::storage::JournalRecord;
using rfid::storage::MemoryBackend;
using rfid::storage::ResyncRecord;
using rfid::storage::TrpRoundRecord;
using rfid::storage::UtrpRoundRecord;
using rfid::tag::TagSet;

GroupConfig trp_config(std::string name, std::uint64_t m) {
  GroupConfig cfg;
  cfg.name = std::move(name);
  cfg.policy = {.tolerated_missing = m, .confidence = 0.95};
  cfg.protocol = ProtocolKind::kTrp;
  return cfg;
}

GroupConfig utrp_config(std::string name, std::uint64_t m) {
  GroupConfig cfg = trp_config(std::move(name), m);
  cfg.protocol = ProtocolKind::kUtrp;
  return cfg;
}

// ---------------------------------------------------------------------------
// MemoryBackend

TEST(MemoryBackend, AppendIsBufferedUntilFlush) {
  MemoryBackend b;
  b.append("f", "hello");
  EXPECT_TRUE(b.exists("f"));
  EXPECT_EQ(b.read("f"), "hello");        // the live process sees its writes
  EXPECT_EQ(b.durable_bytes("f"), "");    // a power cut would lose them
  b.flush("f");
  EXPECT_EQ(b.durable_bytes("f"), "hello");
  b.append("f", " world");
  b.crash();
  EXPECT_EQ(b.read("f"), "hello");  // unflushed suffix vanished
}

TEST(MemoryBackend, RenameIsAtomicReplace) {
  MemoryBackend b;
  b.append("tmp", "new");
  b.flush("tmp");
  b.append("dst", "old");
  b.flush("dst");
  b.rename("tmp", "dst");
  EXPECT_FALSE(b.exists("tmp"));
  EXPECT_EQ(b.read("dst"), "new");
  EXPECT_THROW(b.rename("missing", "x"), IoError);
}

TEST(MemoryBackend, RemoveAndList) {
  MemoryBackend b;
  b.append("a", "1");
  b.append("b", "2");
  auto names = b.list();
  EXPECT_EQ(names.size(), 2u);
  b.remove("a");
  EXPECT_FALSE(b.exists("a"));
  EXPECT_THROW(b.remove("a"), IoError);
  EXPECT_THROW((void)b.read("a"), IoError);
}

TEST(MemoryBackend, CorruptDurableFlipsOneBit) {
  MemoryBackend b;
  b.append("f", "abc");
  b.flush("f");
  b.corrupt_durable("f", 1, 0);
  EXPECT_EQ(b.durable_bytes("f"), std::string("a") +
                                      static_cast<char>('b' ^ 1) + "c");
}

// ---------------------------------------------------------------------------
// FileBackend

TEST(FileBackend, RoundTripsThroughRealFiles) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "rfidmon_storage_test")
          .string();
  std::filesystem::remove_all(dir);
  FileBackend b(dir);
  b.append("snap", "line one\n");
  b.append("snap", "line two\n");
  b.flush("snap");
  EXPECT_EQ(b.read("snap"), "line one\nline two\n");
  b.rename("snap", "snap2");
  EXPECT_FALSE(b.exists("snap"));
  EXPECT_TRUE(b.exists("snap2"));
  EXPECT_EQ(b.list().size(), 1u);
  b.remove("snap2");
  EXPECT_TRUE(b.list().empty());
  EXPECT_THROW((void)b.read("nope"), IoError);
  // Names that escape the directory are API misuse, not I/O failure.
  EXPECT_THROW(b.append("../evil", "x"), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Journal framing

JournalRecord sample_enroll(rfid::util::Rng& rng) {
  EnrollRecord r;
  r.config = utrp_config("cage 7", 3);
  r.tags = TagSet::make_random(12, rng);
  return r;
}

TEST(Journal, EncodeScanRoundTripsEveryKind) {
  rfid::util::Rng rng(11);
  std::string bytes(rfid::storage::kJournalMagic);
  bytes += encode_record(sample_enroll(rng));
  bytes += encode_record(TrpRoundRecord{
      0, {.frame_size = 32, .r = 987654321}, rfid::bits::Bitstring(32)});
  UtrpRoundRecord utrp_record;
  utrp_record.group = 1;
  utrp_record.challenge = {.frame_size = 3, .seeds = {7, 8, 9}};
  utrp_record.reported = rfid::bits::Bitstring(3);
  utrp_record.deadline_met = false;
  bytes += encode_record(utrp_record);
  bytes += encode_record(ResyncRecord{1, TagSet::make_random(4, rng)});

  const auto scan = rfid::storage::scan_journal(bytes);
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.valid_bytes, bytes.size());
  ASSERT_EQ(scan.records.size(), 4u);

  const auto& enroll = std::get<EnrollRecord>(scan.records[0]);
  EXPECT_EQ(enroll.config.name, "cage 7");
  EXPECT_EQ(enroll.config.protocol, ProtocolKind::kUtrp);
  EXPECT_EQ(enroll.tags.size(), 12u);
  const auto& trp = std::get<TrpRoundRecord>(scan.records[1]);
  EXPECT_EQ(trp.challenge.frame_size, 32u);
  EXPECT_EQ(trp.challenge.r, 987654321u);
  const auto& utrp = std::get<UtrpRoundRecord>(scan.records[2]);
  EXPECT_EQ(utrp.group, 1u);
  EXPECT_EQ(utrp.challenge.seeds, (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_FALSE(utrp.deadline_met);
  EXPECT_EQ(std::get<ResyncRecord>(scan.records[3]).audited.size(), 4u);
}

TEST(Journal, TornTailIsTruncatedNotFatal) {
  rfid::util::Rng rng(12);
  std::string bytes(rfid::storage::kJournalMagic);
  bytes += encode_record(sample_enroll(rng));
  const std::size_t clean = bytes.size();
  bytes += encode_record(ResyncRecord{0, TagSet::make_random(4, rng)});
  bytes.resize(clean + 5);  // crash mid-append: half a frame on disk

  const auto scan = rfid::storage::scan_journal(bytes);
  EXPECT_TRUE(scan.header_valid);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, clean);
  EXPECT_EQ(scan.dropped_bytes, 5u);
}

TEST(Journal, RottedRecordTruncatesSuffix) {
  rfid::util::Rng rng(13);
  std::string bytes(rfid::storage::kJournalMagic);
  bytes += encode_record(sample_enroll(rng));
  const std::size_t first_end = bytes.size();
  bytes += encode_record(ResyncRecord{0, TagSet::make_random(4, rng)});
  bytes += encode_record(ResyncRecord{0, TagSet::make_random(4, rng)});
  bytes[first_end + 20] = static_cast<char>(bytes[first_end + 20] ^ 0x40);

  const auto scan = rfid::storage::scan_journal(bytes);
  // The rotted record and everything behind it is dropped; the clean prefix
  // survives. Damage is data, not an exception.
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, first_end);
  EXPECT_GT(scan.dropped_bytes, 0u);
}

TEST(Journal, BadHeaderRejectsWholeFile) {
  const auto scan = rfid::storage::scan_journal("NOT A JOURNAL\n");
  EXPECT_FALSE(scan.header_valid);
  EXPECT_TRUE(scan.records.empty());
}

// ---------------------------------------------------------------------------
// On-disk byte identity: one record of every kind in each journal format,
// with fixed field values, against bytes captured before the three journals
// shared one codec and one record log. Round-trip tests cannot see a writer
// and a reader that drift together; these pin the bytes themselves.

namespace storage = rfid::storage;
using rfid::tag::Tag;
using rfid::tag::TagId;

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xfU];
  }
  return out;
}

rfid::bits::Bitstring bits_with(std::size_t size,
                                std::initializer_list<std::size_t> set) {
  rfid::bits::Bitstring b(size);
  for (const std::size_t i : set) b.set(i);
  return b;
}

storage::DaemonZoneHealthRecord fixed_zone_health() {
  return {.miss_streak = 1,
          .intact_streak = 2,
          .violated = true,
          .quarantined = false,
          .quarantined_at = 9,
          .readers = {{.bad_streak = 3, .quarantined = true,
                       .quarantined_at = 4}}};
}

storage::DaemonAlertRecord fixed_alert(bool with_missing) {
  storage::DaemonAlertRecord alert{.sequence = 4,
                                   .kind = 2,
                                   .epoch = 3,
                                   .zone = 0,
                                   .detail = "zone 0 violated",
                                   .missing = {}};
  if (with_missing) alert.missing = {TagId(1, 2), TagId(0xdeadbeef, 7)};
  return alert;
}

TEST(JournalBytes, MagicsAreUnchanged) {
  EXPECT_EQ(storage::kJournalMagic, "RFIDMON-JOURNAL 1\n");
  EXPECT_EQ(storage::kFleetJournalMagic, "RFIDMON-FLEET 2\n");
  EXPECT_EQ(storage::kDaemonJournalMagic, "RFIDMON-DAEMON 3\n");
  EXPECT_EQ(storage::kDaemonJournalMagicV2, "RFIDMON-DAEMON 2\n");
}

TEST(JournalBytes, WalRecordsMatchCapturedBytes) {
  EnrollRecord enroll;
  enroll.config = utrp_config("dock", 3);
  enroll.config.policy.model = rfid::math::EmptySlotModel::kExact;
  enroll.config.comm_budget = 7;
  enroll.config.slack_slots = 2;
  enroll.tags = TagSet({Tag(TagId(1, 2), 3),
                        Tag(TagId(0xdeadbeef, 0x0123456789abcdefULL), 9)});
  EXPECT_EQ(to_hex(encode_record(enroll)),
            "57000000718ed231a02f50d201010300000000000000666666666666ee3f0107"
            "000000000000000200000004000000646f636b02000000000000000100000002"
            "000000000000000300000000000000efbeaddeefcdab89674523010900000000"
            "000000");

  EXPECT_EQ(to_hex(encode_record(TrpRoundRecord{
                1, {.frame_size = 70, .r = 0xfeed}, bits_with(70, {0, 65})})),
            "41000000baa395730e5b8fce02010000000000000046000000edfe0000000000"
            "0046000000000000002000000030303030303030303030303030303031303030"
            "30303030303030303030303032");

  UtrpRoundRecord utrp;
  utrp.group = 2;
  utrp.challenge = {.frame_size = 3, .seeds = {5, 6, 7}};
  utrp.reported = bits_with(3, {1});
  utrp.deadline_met = false;
  EXPECT_EQ(to_hex(encode_record(utrp)),
            "4600000095ecfe68ad6f36a20302000000000000000300000003000000050000"
            "0000000000060000000000000007000000000000000003000000000000001000"
            "000030303030303030303030303030303032");

  EXPECT_EQ(to_hex(encode_record(
                ResyncRecord{2, TagSet({Tag(TagId(4, 5), 6)})})),
            "2500000077b14c330877de110402000000000000000100000000000000040000"
            "0005000000000000000600000000000000");
}

TEST(JournalBytes, FleetRecordsMatchCapturedBytes) {
  EXPECT_EQ(to_hex(storage::encode_fleet_record(storage::FleetRunStartRecord{
                .seed = 42, .fleet = "north", .config_hash = 0xabc})),
            "1a0000009041de25a17d5da1012a00000000000000050000006e6f727468bc0a"
            "000000000000");
  EXPECT_EQ(to_hex(storage::encode_fleet_record(storage::FleetZoneRecord{
                .inventory = "inv",
                .zone = 1,
                .status = 2,
                .attempts = 3,
                .last_failure = 4,
                .resynced = true,
                .rounds_completed = 5,
                .intact_rounds = 6,
                .mismatched_rounds = 7,
                .deadline_missed_rounds = 8,
                .frames_sent = 9,
                .retransmissions = 10,
                .duration_us = 1234.5,
                .readers = 3,
                .degraded_rounds = 11,
                .suspected_readers = 1})),
            "5f000000fd9b3a51af1affc70203000000696e76010000000000000002030000"
            "0004010500000000000000060000000000000007000000000000000800000000"
            "00000009000000000000000a0000000000000000000000004a9340030000000b"
            "0000000000000001000000");
  EXPECT_EQ(to_hex(storage::encode_fleet_record(
                storage::FleetRunEndRecord{.verdict = 2})),
            "02000000b04feeb407ec35080302");
}

TEST(JournalBytes, DaemonRecordsMatchCapturedBytes) {
  EXPECT_EQ(to_hex(storage::encode_daemon_record(storage::DaemonStartRecord{
                .seed = 7, .daemon = "d", .config_hash = 0x99})),
            "160000007351d5bf44191e530107000000000000000100000064990000000000"
            "0000");
  EXPECT_EQ(
      to_hex(storage::encode_daemon_record(storage::DaemonCheckpointRecord{
          .epoch = 3,
          .verdict = 1,
          .next_alert_sequence = 5,
          .zones = {fixed_zone_health()},
          .alerts = {fixed_alert(true)}})),
      "850000006c90127cafcc87ef0203000000000000000105000000000000000100"
      "0000010000000200000001000900000000000000010000000300000001040000"
      "0000000000010000000400000000000000020300000000000000000000000000"
      "00000f0000007a6f6e6520302076696f6c617465640200000001000000020000"
      "0000000000efbeadde0700000000000000");
  EXPECT_EQ(
      to_hex(storage::encode_daemon_record(storage::DaemonSnapshotRecord{
          .verdicts = {0, 1, 1},
          .zones = {fixed_zone_health()},
          .alerts = {fixed_alert(true)},
          .next_alert_sequence = 5})),
      "83000000fada14ca4327ada60305000000000000000300000000010101000000"
      "0100000002000000010009000000000000000100000003000000010400000000"
      "0000000100000004000000000000000203000000000000000000000000000000"
      "0f0000007a6f6e6520302076696f6c6174656402000000010000000200000000"
      "000000efbeadde0700000000000000");
}

// ---------------------------------------------------------------------------
// Forged counts: a checksum-valid record whose count prefix claims billions
// of elements must be rejected as damage, not attempted as an allocation.

TEST(JournalForgedCount, ListBoundsComeFromFieldLists) {
  // The generic list decode checks each count against its element's
  // minimum size, computed from the element's field list, before it
  // reserves anything.
  using rfid::util::min_size;
  EXPECT_EQ(min_size<TagId>(), 12u);
  EXPECT_EQ(min_size<std::uint64_t>(), 8u);
  EXPECT_EQ(min_size<std::uint8_t>(), 1u);  // a snapshot's verdict
  EXPECT_EQ(min_size<storage::DaemonZoneHealthRecord>(), 22u);
  EXPECT_EQ(min_size<storage::DaemonReaderHealthRecord>(), 13u);
  EXPECT_EQ(min_size<storage::DaemonAlertRecord>(), 33u);  // format 2: 29
}

TEST(JournalForgedCount, WalTagCountTruncatesTheScan) {
  rfid::util::Rng rng(14);
  std::string bytes(storage::kJournalMagic);
  bytes += encode_record(sample_enroll(rng));
  const std::size_t clean = bytes.size();
  rfid::util::Encoder forged;  // an enroll record claiming 2^32 tags
  forged.put_u8(1);            // kind: enroll
  forged.put_u8(0);            // protocol: TRP
  forged.put_u64(0);           // tolerated_missing
  forged.put_f64(0.95);        // confidence
  forged.put_u8(0);            // slot model
  forged.put_u64(20);          // comm_budget
  forged.put_u32(8);           // slack_slots
  forged.put_string("forged");
  forged.put_u64(1ULL << 32);  // tag count
  bytes += storage::frame_record(forged.bytes());

  const auto scan = storage::scan_journal(bytes);
  EXPECT_TRUE(scan.header_valid);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, clean);
  EXPECT_GT(scan.dropped_bytes, 0u);
}

TEST(JournalForgedCount, DaemonZoneCountTruncatesTheScanAndOpenResumes) {
  const storage::DaemonStartRecord start{.seed = 7, .daemon = "d"};
  std::string bytes(storage::kDaemonJournalMagic);
  bytes += storage::encode_daemon_record(start);
  bytes += storage::encode_daemon_record(storage::DaemonCheckpointRecord{
      .epoch = 0, .verdict = 1, .next_alert_sequence = 0, .zones = {},
      .alerts = {}});
  const std::size_t clean = bytes.size();
  rfid::util::Encoder forged;  // a checkpoint claiming 2^32 - 1 zones
  forged.put_u8(2);            // kind: checkpoint
  forged.put_u64(1);           // epoch
  forged.put_u8(1);            // verdict
  forged.put_u64(0);           // next_alert_sequence
  forged.put_u32(0xffffffffU); // zone count
  forged.put_u32(0);           // alert count
  bytes += storage::frame_record(forged.bytes());

  const auto scan = storage::scan_daemon_journal(bytes);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, clean);
  EXPECT_GT(scan.dropped_bytes, 0u);

  MemoryBackend backend;
  backend.append("daemon.journal", bytes);
  backend.flush("daemon.journal");
  storage::DaemonJournal journal(backend, "daemon.journal");
  const storage::DaemonReplay replay = journal.open(start);
  EXPECT_FALSE(replay.fresh);
  EXPECT_EQ(journal.state().verdicts, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(replay.compacted_bytes, scan.dropped_bytes);
  // open() compacted the forged tail away.
  EXPECT_EQ(storage::scan_daemon_journal(backend.read("daemon.journal"))
                .dropped_bytes,
            0u);
}

// ---------------------------------------------------------------------------
// Hostile input: every journal format under truncation at every length,
// every single-bit flip, and seeded garbage tails — the journal counterpart
// of service_frame_test's FlippedBitFailsChecksum and
// RandomGarbageNeverCrashes.

/// What a scan kept, each record re-encoded so every format compares as
/// bytes.
struct Kept {
  std::vector<std::string> records;
  std::uint64_t valid_bytes = 0;
  std::uint64_t dropped_bytes = 0;
};

template <class Scan, class Encode>
Kept kept(const Scan& scan, Encode encode) {
  Kept out{{}, scan.valid_bytes, scan.dropped_bytes};
  for (const auto& record : scan.records) out.records.push_back(encode(record));
  return out;
}

using Scanner = std::function<Kept(std::string_view)>;

/// `journal` is valid and its records re-encode to `originals`. Every
/// attacked copy must scan without throwing, account for every byte, and
/// keep a prefix of `originals` — all of them when the damage sits behind
/// the whole journal (`intact_prefix`).
void attack(const std::string& journal, std::size_t header,
            const std::vector<std::string>& originals, const Scanner& scan) {
  const auto check = [&](const std::string& bytes, const std::string& what,
                         bool intact_prefix) {
    Kept got;
    try {
      got = scan(bytes);
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": scan threw " << e.what();
      return;
    }
    EXPECT_EQ(got.valid_bytes + got.dropped_bytes, bytes.size()) << what;
    const std::size_t expected =
        intact_prefix ? originals.size() : got.records.size();
    ASSERT_LE(expected, originals.size()) << what;
    ASSERT_LE(expected, got.records.size()) << what;
    for (std::size_t i = 0; i < expected; ++i) {
      ASSERT_EQ(got.records[i], originals[i]) << what << ", record " << i;
    }
  };

  const Kept intact = scan(journal);
  ASSERT_EQ(intact.records, originals);
  ASSERT_EQ(intact.dropped_bytes, 0u);

  for (std::size_t length = 0; length <= journal.size(); ++length) {
    check(journal.substr(0, length), "truncated to " + std::to_string(length),
          false);
  }
  for (std::size_t at = 0; at < journal.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = journal;
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      check(bytes, "bit " + std::to_string(bit) + " of byte " +
                       std::to_string(at) + " flipped",
            false);
    }
  }
  rfid::util::Rng rng(journal.size());
  for (int trial = 0; trial < 200; ++trial) {
    // Raw garbage after the header, and checksum-valid garbage after the
    // whole journal: the second reaches the record decoders, which must
    // reject it (or decode it) without disturbing the records before it.
    std::string raw = journal.substr(0, header);
    std::vector<std::byte> payload(rng.below(64));
    for (std::byte& b : payload) b = static_cast<std::byte>(rng.below(256));
    for (const std::byte b : payload) raw.push_back(static_cast<char>(b));
    check(raw, "garbage tail " + std::to_string(trial), false);
    if (!payload.empty()) payload[0] = static_cast<std::byte>(rng.below(5));
    check(journal + storage::frame_record(payload),
          "framed garbage " + std::to_string(trial), true);
  }
}

/// Daemon format 2, written field by field: format 3 without each alert's
/// missing-tag list, the layout builds before the drill-down wrote.
std::string daemon_v2_journal(
    const std::vector<storage::DaemonJournalRecord>& records) {
  std::string out(storage::kDaemonJournalMagicV2);
  for (const auto& record : records) {
    rfid::util::Encoder w;
    const auto zones_and_alerts = [&w](const auto& zones, const auto& alerts) {
      w.put_u32(static_cast<std::uint32_t>(zones.size()));
      for (const storage::DaemonZoneHealthRecord& z : zones) {
        w.put_u32(z.miss_streak);
        w.put_u32(z.intact_streak);
        w.put_u8(z.violated ? 1 : 0);
        w.put_u8(z.quarantined ? 1 : 0);
        w.put_u64(z.quarantined_at);
        w.put_u32(static_cast<std::uint32_t>(z.readers.size()));
        for (const storage::DaemonReaderHealthRecord& r : z.readers) {
          w.put_u32(r.bad_streak);
          w.put_u8(r.quarantined ? 1 : 0);
          w.put_u64(r.quarantined_at);
        }
      }
      w.put_u32(static_cast<std::uint32_t>(alerts.size()));
      for (const storage::DaemonAlertRecord& a : alerts) {
        w.put_u64(a.sequence);
        w.put_u8(a.kind);
        w.put_u64(a.epoch);
        w.put_u64(a.zone);
        w.put_string(a.detail);
      }
    };
    if (const auto* start = std::get_if<storage::DaemonStartRecord>(&record)) {
      w.put_u8(1);
      w.put_u64(start->seed);
      w.put_string(start->daemon);
      w.put_u64(start->config_hash);
    } else if (const auto* checkpoint =
                   std::get_if<storage::DaemonCheckpointRecord>(&record)) {
      w.put_u8(2);
      w.put_u64(checkpoint->epoch);
      w.put_u8(checkpoint->verdict);
      w.put_u64(checkpoint->next_alert_sequence);
      zones_and_alerts(checkpoint->zones, checkpoint->alerts);
    } else {
      const auto& snapshot = std::get<storage::DaemonSnapshotRecord>(record);
      w.put_u8(3);
      w.put_u64(snapshot.next_alert_sequence);
      w.put_u32(static_cast<std::uint32_t>(snapshot.verdicts.size()));
      for (const std::uint8_t verdict : snapshot.verdicts) w.put_u8(verdict);
      zones_and_alerts(snapshot.zones, snapshot.alerts);
    }
    out += storage::frame_record(w.bytes());
  }
  return out;
}

TEST(JournalHostileInput, WalScanSurvivesEveryAttack) {
  rfid::util::Rng rng(15);
  EnrollRecord enroll;
  enroll.config = utrp_config("dock", 1);
  enroll.tags = TagSet::make_random(3, rng);
  UtrpRoundRecord utrp;
  utrp.challenge = {.frame_size = 3, .seeds = {5, 6, 7}};
  utrp.reported = bits_with(3, {1});
  const std::vector<JournalRecord> records{
      enroll,
      TrpRoundRecord{0, {.frame_size = 70, .r = 3}, bits_with(70, {0, 65})},
      utrp, ResyncRecord{0, TagSet::make_random(3, rng)}};
  std::string journal(storage::kJournalMagic);
  std::vector<std::string> originals;
  for (const JournalRecord& record : records) {
    originals.push_back(encode_record(record));
    journal += originals.back();
  }
  attack(journal, storage::kJournalMagic.size(), originals,
         [](std::string_view bytes) {
           return kept(storage::scan_journal(bytes),
                       [](const JournalRecord& r) { return encode_record(r); });
         });
}

TEST(JournalHostileInput, FleetScanSurvivesEveryAttack) {
  const std::vector<storage::FleetJournalRecord> records{
      storage::FleetRunStartRecord{.seed = 9, .fleet = "f", .config_hash = 1},
      storage::FleetZoneRecord{.inventory = "inv", .zone = 0, .attempts = 1},
      storage::FleetZoneRecord{.inventory = "inv", .zone = 1, .readers = 3},
      storage::FleetRunEndRecord{.verdict = 1}};
  std::string journal(storage::kFleetJournalMagic);
  std::vector<std::string> originals;
  for (const auto& record : records) {
    originals.push_back(storage::encode_fleet_record(record));
    journal += originals.back();
  }
  attack(journal, storage::kFleetJournalMagic.size(), originals,
         [](std::string_view bytes) {
           return kept(storage::scan_fleet_journal(bytes),
                       [](const storage::FleetJournalRecord& r) {
                         return storage::encode_fleet_record(r);
                       });
         });
}

/// A daemon record stream exercising every record kind and nested list.
std::vector<storage::DaemonJournalRecord> daemon_records(bool with_missing) {
  return {storage::DaemonStartRecord{.seed = 7, .daemon = "d"},
          storage::DaemonCheckpointRecord{.epoch = 0,
                                          .verdict = 1,
                                          .next_alert_sequence = 5,
                                          .zones = {fixed_zone_health()},
                                          .alerts = {fixed_alert(with_missing)}},
          storage::DaemonSnapshotRecord{.verdicts = {1},
                                        .zones = {fixed_zone_health()},
                                        .alerts = {fixed_alert(with_missing)},
                                        .next_alert_sequence = 5},
          storage::DaemonCheckpointRecord{.epoch = 1,
                                          .verdict = 0,
                                          .next_alert_sequence = 5,
                                          .zones = {fixed_zone_health()},
                                          .alerts = {}}};
}

Kept scan_daemon(std::string_view bytes) {
  return kept(storage::scan_daemon_journal(bytes),
              [](const storage::DaemonJournalRecord& r) {
                return storage::encode_daemon_record(r);
              });
}

TEST(JournalHostileInput, DaemonScanSurvivesEveryAttack) {
  std::string journal(storage::kDaemonJournalMagic);
  std::vector<std::string> originals;
  for (const auto& record : daemon_records(true)) {
    originals.push_back(storage::encode_daemon_record(record));
    journal += originals.back();
  }
  attack(journal, storage::kDaemonJournalMagic.size(), originals, scan_daemon);
}

TEST(JournalHostileInput, DaemonFormat2ScanSurvivesEveryAttack) {
  // Format-2 records decode with empty missing lists, so they re-encode as
  // the format-3 records that carry none.
  const auto records = daemon_records(false);
  const std::string journal = daemon_v2_journal(records);
  std::vector<std::string> originals;
  for (const auto& record : records) {
    originals.push_back(storage::encode_daemon_record(record));
  }
  ASSERT_EQ(storage::scan_daemon_journal(journal).version, 2u);
  attack(journal, storage::kDaemonJournalMagicV2.size(), originals,
         scan_daemon);
}

// ---------------------------------------------------------------------------
// Full-state codec (snapshot + AUX)

/// A server with history: two groups, a failed TRP round (alert), a clean
/// UTRP round, a deadline miss (alert + needs_resync), and a resync (alert).
InventoryServer server_with_history(rfid::util::Rng& rng) {
  InventoryServer server;
  TagSet shelf = TagSet::make_random(80, rng);
  TagSet cage = TagSet::make_random(60, rng);
  const GroupId g0 = server.enroll(shelf, trp_config("shelf", 0));
  const GroupId g1 = server.enroll(cage, utrp_config("cage", 2));

  const rfid::protocol::TrpReader trp_reader;
  TagSet looted = shelf;
  (void)looted.steal_random(20, rng);
  const auto c0 = server.challenge_trp(g0, rng);
  (void)server.submit_trp(g0, c0, trp_reader.scan(looted.tags(), c0, rng));

  const rfid::protocol::UtrpReader utrp_reader;
  const auto c1 = server.challenge_utrp(g1, rng);
  (void)server.submit_utrp(g1, c1, utrp_reader.scan(cage.tags(), c1).bitstring,
                           /*deadline_met=*/true);
  cage.begin_round();
  const auto c2 = server.challenge_utrp(g1, rng);
  (void)server.submit_utrp(g1, c2, utrp_reader.scan(cage.tags(), c2).bitstring,
                           /*deadline_met=*/false);
  cage.begin_round();
  server.resync(g1, cage);
  return server;
}

TEST(ServerState, DumpBuildRoundTripIsBitIdentical) {
  rfid::util::Rng rng(21);
  const InventoryServer server = server_with_history(rng);
  ASSERT_GE(server.alerts().size(), 2u);

  const std::string dump = rfid::storage::dump_state(server);
  std::istringstream is(dump);
  const auto state = rfid::storage::read_state(is);
  const InventoryServer rebuilt = rfid::storage::build_server(state);

  EXPECT_EQ(rfid::storage::dump_state(rebuilt), dump);
  EXPECT_EQ(rebuilt.alerts().size(), server.alerts().size());
  EXPECT_EQ(rebuilt.rounds_completed(GroupId{1}), 2u);
  EXPECT_FALSE(rebuilt.needs_resync(GroupId{1}));
}

TEST(ServerState, PlainSnapshotReadsAsZeroHistory) {
  rfid::util::Rng rng(22);
  const InventoryServer server = server_with_history(rng);
  std::stringstream plain;
  rfid::server::save_snapshot(plain, rfid::server::enrolled_groups(server));
  const auto state = rfid::storage::read_state(plain);
  EXPECT_EQ(state.groups.size(), 2u);
  EXPECT_TRUE(state.alerts.empty());
  EXPECT_EQ(state.group_states[1].rounds, 0u);
}

TEST(ServerState, AuxDamageIsRejectedWithContext) {
  rfid::util::Rng rng(23);
  std::string dump = rfid::storage::dump_state(server_with_history(rng));

  {
    // Flip a digit inside an ALERT line: AUX checksum must catch it.
    std::string bad = dump;
    const auto pos = bad.find("ALERT ");
    ASSERT_NE(pos, std::string::npos);
    bad[pos + 6] = bad[pos + 6] == '0' ? '1' : '0';
    std::istringstream is(bad);
    EXPECT_THROW((void)rfid::storage::read_state(is), std::invalid_argument);
  }
  {
    // Cut the file before ENDAUX: truncation must be named, with a line.
    std::string bad = dump.substr(0, dump.rfind("ENDAUX"));
    std::istringstream is(bad);
    try {
      (void)rfid::storage::read_state(is);
      FAIL() << "truncated AUX accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("aux line"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// DurableInventoryServer

/// Drives a short mixed workload through a durable server; returns the live
/// tag sets so callers can continue the story.
struct Workload {
  TagSet shelf;
  TagSet cage;
  GroupId g0, g1;
};

Workload run_workload(DurableInventoryServer& durable, rfid::util::Rng& rng) {
  Workload w;
  w.shelf = TagSet::make_random(70, rng);
  w.cage = TagSet::make_random(50, rng);
  w.g0 = durable.enroll(w.shelf, trp_config("shelf", 1));
  w.g1 = durable.enroll(w.cage, utrp_config("cage", 2));

  const rfid::protocol::TrpReader trp_reader;
  const rfid::protocol::UtrpReader utrp_reader;
  for (int i = 0; i < 2; ++i) {
    const auto c = durable.challenge_trp(w.g0, rng);
    (void)durable.submit_trp(w.g0, c, trp_reader.scan(w.shelf.tags(), c, rng));
  }
  for (int i = 0; i < 2; ++i) {
    const auto c = durable.challenge_utrp(w.g1, rng);
    (void)durable.submit_utrp(w.g1, c,
                              utrp_reader.scan(w.cage.tags(), c).bitstring,
                              /*deadline_met=*/true);
    w.cage.begin_round();
  }
  return w;
}

TEST(DurableServer, StateSurvivesReopen) {
  MemoryBackend backend;
  rfid::util::Rng rng(31);
  std::string fingerprint;
  {
    DurableInventoryServer durable(backend);
    EXPECT_TRUE(durable.recovery_report().clean());
    EXPECT_FALSE(durable.recovery_report().snapshot_loaded);
    (void)run_workload(durable, rng);
    fingerprint = rfid::storage::dump_state(durable.server());
    EXPECT_EQ(durable.journal_records(), 6u);
  }
  backend.crash();  // everything was flushed record-by-record; no-op

  DurableInventoryServer reopened(backend);
  EXPECT_EQ(rfid::storage::dump_state(reopened.server()), fingerprint);
  EXPECT_TRUE(reopened.recovery_report().clean());
  EXPECT_EQ(reopened.recovery_report().records_replayed, 6u);
  EXPECT_FALSE(reopened.recovery_report().snapshot_loaded);
}

TEST(DurableServer, RotationCheckpointsAndPrunes) {
  MemoryBackend backend;
  rfid::util::Rng rng(32);
  DurabilityConfig cfg;
  cfg.keep_generations = 1;
  DurableInventoryServer durable(backend, cfg);
  Workload w = run_workload(durable, rng);
  const std::string fingerprint = rfid::storage::dump_state(durable.server());

  durable.rotate();
  EXPECT_EQ(durable.generation(), 1u);
  EXPECT_EQ(durable.journal_records(), 0u);
  EXPECT_TRUE(backend.exists(durable.snapshot_name(1)));
  EXPECT_FALSE(backend.exists(durable.journal_name(0)));  // pruned (keep=1)

  durable.rotate();  // idle rotation: same state, next generation
  EXPECT_EQ(durable.generation(), 2u);
  EXPECT_FALSE(backend.exists(durable.snapshot_name(1)));

  DurableInventoryServer reopened(backend, cfg);
  EXPECT_EQ(rfid::storage::dump_state(reopened.server()), fingerprint);
  EXPECT_TRUE(reopened.recovery_report().snapshot_loaded);
  EXPECT_EQ(reopened.recovery_report().base_generation, 2u);
  EXPECT_EQ(reopened.recovery_report().records_replayed, 0u);
  (void)w;
}

TEST(DurableServer, AutoRotationAfterRecordThreshold) {
  MemoryBackend backend;
  rfid::util::Rng rng(33);
  DurabilityConfig cfg;
  cfg.rotate_after_records = 4;
  DurableInventoryServer durable(backend, cfg);
  (void)run_workload(durable, rng);  // 6 records -> one auto-rotation
  EXPECT_EQ(durable.generation(), 1u);
  EXPECT_EQ(durable.journal_records(), 2u);

  DurableInventoryServer reopened(backend, cfg);
  EXPECT_EQ(rfid::storage::dump_state(reopened.server()),
            rfid::storage::dump_state(durable.server()));
  EXPECT_EQ(reopened.recovery_report().records_replayed, 2u);
}

TEST(DurableServer, TornJournalTailIsDroppedAndHealed) {
  MemoryBackend backend;
  rfid::util::Rng rng(34);
  std::string before_last;
  {
    DurableInventoryServer durable(backend);
    Workload w = run_workload(durable, rng);
    before_last = rfid::storage::dump_state(durable.server());
    // One more UTRP round, then rot a byte inside its journal record.
    const auto c = durable.challenge_utrp(w.g1, rng);
    (void)durable.submit_utrp(
        w.g1, c, rfid::protocol::UtrpReader{}.scan(w.cage.tags(), c).bitstring,
        true);
  }
  const std::string journal = "rfidmon.journal.0";
  backend.corrupt_durable(journal, backend.durable_bytes(journal).size() - 3);

  DurableInventoryServer recovered(backend);
  EXPECT_EQ(rfid::storage::dump_state(recovered.server()), before_last);
  EXPECT_FALSE(recovered.recovery_report().clean());
  EXPECT_GT(recovered.recovery_report().truncated_bytes, 0u);
  EXPECT_TRUE(recovered.recovery_report().rotated_after_recovery);
  // Healing re-checkpointed: the next open is clean again.
  DurableInventoryServer again(backend);
  EXPECT_TRUE(again.recovery_report().clean());
  EXPECT_EQ(rfid::storage::dump_state(again.server()), before_last);
}

TEST(DurableServer, RottedSnapshotFallsBackToJournalChain) {
  MemoryBackend backend;
  rfid::util::Rng rng(35);
  std::string fingerprint;
  {
    DurableInventoryServer durable(backend);
    Workload w = run_workload(durable, rng);
    durable.rotate();  // snapshot.1 + journal.1
    const auto c = durable.challenge_trp(w.g0, rng);
    (void)durable.submit_trp(
        w.g0, c, rfid::protocol::TrpReader{}.scan(w.shelf.tags(), c, rng));
    fingerprint = rfid::storage::dump_state(durable.server());
  }
  // Rot the snapshot. journal.0 (still retained: keep_generations=2) plus
  // journal.1 re-derive the same state from scratch.
  backend.corrupt_durable("rfidmon.snapshot.1", 100);

  DurableInventoryServer recovered(backend);
  EXPECT_EQ(rfid::storage::dump_state(recovered.server()), fingerprint);
  EXPECT_FALSE(recovered.recovery_report().snapshot_loaded);
  EXPECT_EQ(recovered.recovery_report().snapshots_skipped, 1u);
  EXPECT_EQ(recovered.recovery_report().records_replayed, 7u);
  EXPECT_TRUE(recovered.recovery_report().rotated_after_recovery);
}

TEST(DurableServer, PreValidationKeepsBadMutationsOutOfTheJournal) {
  MemoryBackend backend;
  rfid::util::Rng rng(36);
  DurableInventoryServer durable(backend);
  Workload w = run_workload(durable, rng);

  EXPECT_THROW((void)durable.enroll(TagSet{}, trp_config("empty", 0)),
               std::invalid_argument);
  EXPECT_THROW((void)durable.enroll(TagSet::make_random(3, rng),
                                    trp_config("shelf", 0)),  // duplicate name
               std::invalid_argument);
  EXPECT_THROW((void)durable.submit_trp(w.g1, {.frame_size = 8, .r = 1},
                                        rfid::bits::Bitstring(8)),
               std::invalid_argument);  // UTRP group
  EXPECT_THROW((void)durable.submit_utrp(w.g1, {.frame_size = 8, .seeds = {1}},
                                         rfid::bits::Bitstring(8), true),
               std::invalid_argument);  // seed count != frame
  EXPECT_THROW(durable.resync(w.g1, TagSet::make_random(3, rng)),
               std::invalid_argument);  // wrong audit size
  // None of those may have journaled: a reopen replays cleanly.
  EXPECT_EQ(durable.journal_records(), 6u);
  DurableInventoryServer reopened(backend);
  EXPECT_TRUE(reopened.recovery_report().clean());
  EXPECT_EQ(rfid::storage::dump_state(reopened.server()),
            rfid::storage::dump_state(durable.server()));
}

TEST(DurableServer, WorksOnFileBackend) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "rfidmon_durable_test")
          .string();
  std::filesystem::remove_all(dir);
  FileBackend backend(dir);
  rfid::util::Rng rng(37);
  std::string fingerprint;
  {
    DurableInventoryServer durable(backend);
    (void)run_workload(durable, rng);
    durable.rotate();
    fingerprint = rfid::storage::dump_state(durable.server());
  }
  DurableInventoryServer reopened(backend);
  EXPECT_EQ(rfid::storage::dump_state(reopened.server()), fingerprint);
  EXPECT_TRUE(reopened.recovery_report().clean());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// FaultyBackend

TEST(FaultyBackend, CrashAtOpCountsOnlyMutations) {
  MemoryBackend inner;
  StorageFaultPlan plan;
  plan.crash_at_op = 2;
  FaultyBackend faulty(inner, plan);
  faulty.append("f", "a");
  (void)faulty.read("f");    // reads are free
  (void)faulty.exists("f");  // so are probes
  EXPECT_THROW(faulty.flush("f"), CrashInjected);
  EXPECT_EQ(faulty.mutating_ops(), 2u);
}

TEST(FaultyBackend, TornCrashPersistsOnlyAPrefix) {
  MemoryBackend inner;
  StorageFaultPlan plan;
  plan.crash_at_op = 1;
  plan.torn_keep_fraction = 0.5;
  FaultyBackend faulty(inner, plan);
  EXPECT_THROW(faulty.append("f", "abcdefgh"), CrashInjected);
  inner.crash();
  // The torn prefix was forced durable before the "power cut".
  EXPECT_EQ(inner.durable_bytes("f"), "abcd");
}

TEST(FaultyBackend, CrashBeforeEffectLeavesNothing) {
  MemoryBackend inner;
  StorageFaultPlan plan;
  plan.crash_at_op = 1;
  plan.crash_before_effect = true;
  plan.torn_keep_fraction = 1.0;
  FaultyBackend faulty(inner, plan);
  EXPECT_THROW(faulty.append("f", "abcdefgh"), CrashInjected);
  inner.crash();
  EXPECT_FALSE(inner.exists("f"));
}

TEST(FaultyBackend, LyingFlushDropsDataAtCrash) {
  MemoryBackend inner;
  StorageFaultPlan plan;
  plan.lying_flush_from_op = 1;
  FaultyBackend faulty(inner, plan);
  faulty.append("f", "abc");
  faulty.flush("f");  // reports success, persists nothing
  EXPECT_EQ(inner.read("f"), "abc");
  inner.crash();
  EXPECT_EQ(inner.durable_bytes("f"), "");
}

TEST(FaultyBackend, PartialAppendFailsWithoutCrashing) {
  MemoryBackend inner;
  StorageFaultPlan plan;
  plan.partial_append_at = 2;
  plan.partial_append_keep_fraction = 0.25;
  FaultyBackend faulty(inner, plan);
  faulty.append("f", "full");
  EXPECT_THROW(faulty.append("f", "abcdefgh"), IoError);
  faulty.append("f", "more");  // the process lives on
  EXPECT_EQ(inner.read("f"), "fullabmore");
}

TEST(DurableServer, SurvivesAPartialAppendByRotating) {
  // Disk-full during a journal append: the mutation fails (IoError), but the
  // torn prefix must not poison later records — the server abandons the
  // damaged journal by checkpointing onto a fresh generation.
  MemoryBackend inner;
  rfid::util::Rng rng(38);
  DurableInventoryServer setup(inner);
  Workload w = run_workload(setup, rng);
  const std::string before = rfid::storage::dump_state(setup.server());

  StorageFaultPlan plan;
  plan.partial_append_at = 1;
  plan.partial_append_keep_fraction = 0.5;
  FaultyBackend faulty(inner, plan);
  DurableInventoryServer durable(faulty);
  EXPECT_EQ(rfid::storage::dump_state(durable.server()), before);

  const auto c = durable.challenge_trp(w.g0, rng);
  const auto reported = rfid::protocol::TrpReader{}.scan(w.shelf.tags(), c, rng);
  EXPECT_THROW((void)durable.submit_trp(w.g0, c, reported), IoError);
  EXPECT_EQ(rfid::storage::dump_state(durable.server()), before);

  // The same mutation, retried, succeeds into the fresh generation…
  (void)durable.submit_trp(w.g0, c, reported);
  const std::string after = rfid::storage::dump_state(durable.server());
  EXPECT_NE(after, before);
  // …and a reopen sees exactly the post-retry state.
  DurableInventoryServer reopened(inner);
  EXPECT_EQ(rfid::storage::dump_state(reopened.server()), after);
}

}  // namespace
