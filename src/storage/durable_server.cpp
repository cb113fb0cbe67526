#include "storage/durable_server.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/catalog.h"
#include "storage/record_log.h"
#include "util/expect.h"

namespace rfid::storage {

namespace {

/// Parses "<stem><digits>" -> digits, rejecting anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_generation(
    const std::string& name, const std::string& stem) {
  if (name.size() <= stem.size() || name.rfind(stem, 0) != 0) return std::nullopt;
  const std::string digits = name.substr(stem.size());
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  try {
    return std::stoull(digits);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

}  // namespace

DurableInventoryServer::DurableInventoryServer(StorageBackend& backend,
                                               DurabilityConfig config,
                                               hash::SlotHasher hasher)
    : backend_(backend),
      config_(std::move(config)),
      hasher_(hasher),
      server_(hasher) {
  RFID_EXPECT(config_.keep_generations >= 1, "must keep at least one generation");
  RFID_EXPECT(!config_.prefix.empty(), "prefix must be non-empty");
  if (config_.metrics != nullptr) {
    namespace cat = obs::catalog;
    obs::MetricsRegistry& reg = *config_.metrics;
    instruments_.journal_appends = &cat::journal_appends_total(reg);
    instruments_.journal_bytes = &cat::journal_bytes_total(reg);
    instruments_.journal_append_failures =
        &cat::journal_append_failures_total(reg);
    instruments_.rotations = &cat::snapshot_rotations_total(reg);
    if (!config_.clock) config_.clock = obs::Clock(obs::steady_now_us);
  }
  const double recovery_start_us =
      config_.clock ? config_.clock() : 0.0;
  recover();
  if (config_.metrics != nullptr) {
    record_recovery_metrics(config_.clock() - recovery_start_us);
    // Attach the wrapped server only now: replaying the journal above must
    // not re-count historical rounds as live verdict/alert traffic.
    server_.attach_metrics(config_.metrics);
  }
}

void DurableInventoryServer::record_recovery_metrics(double duration_us) {
  namespace cat = obs::catalog;
  obs::MetricsRegistry& reg = *config_.metrics;
  cat::recoveries_total(reg, recovery_.clean() ? "true" : "false").inc();
  cat::recovery_duration_us(reg).observe(duration_us);
  cat::recovery_records_replayed_total(reg).inc(recovery_.records_replayed);
  cat::recovery_truncated_bytes_total(reg).inc(recovery_.truncated_bytes);
  cat::recovery_snapshots_skipped_total(reg).inc(recovery_.snapshots_skipped);
  if (recovery_.rotated_after_recovery) cat::recovery_healed_total(reg).inc();
}

std::string DurableInventoryServer::snapshot_name(std::uint64_t generation) const {
  return config_.prefix + ".snapshot." + std::to_string(generation);
}

std::string DurableInventoryServer::journal_name(std::uint64_t generation) const {
  return config_.prefix + ".journal." + std::to_string(generation);
}

void DurableInventoryServer::recover() {
  // A stale temp file is a checkpoint that never committed; discard it.
  const std::string tmp = config_.prefix + ".snapshot.tmp";
  if (backend_.exists(tmp)) backend_.remove(tmp);

  std::set<std::uint64_t> snapshot_gens;
  std::set<std::uint64_t> journal_gens;
  for (const std::string& name : backend_.list()) {
    if (const auto g = parse_generation(name, config_.prefix + ".snapshot.")) {
      snapshot_gens.insert(*g);
    } else if (const auto j = parse_generation(name, config_.prefix + ".journal.")) {
      journal_gens.insert(*j);
    }
  }
  std::uint64_t newest = 0;
  if (!snapshot_gens.empty()) newest = std::max(newest, *snapshot_gens.rbegin());
  if (!journal_gens.empty()) newest = std::max(newest, *journal_gens.rbegin());

  // Newest snapshot that parses and checksums clean wins; rotted or torn
  // ones are skipped (the journal chain below re-derives their contents).
  PersistedState base;
  for (auto it = snapshot_gens.rbegin(); it != snapshot_gens.rend(); ++it) {
    try {
      std::istringstream is(backend_.read(snapshot_name(*it)));
      base = read_state(is);
      recovery_.snapshot_loaded = true;
      recovery_.base_generation = *it;
      break;
    } catch (const std::exception&) {
      ++recovery_.snapshots_skipped;
    }
  }
  server_ = recovery_.snapshot_loaded ? build_server(base, hasher_)
                                      : server::InventoryServer(hasher_);

  bool chain_broken = recovery_.snapshots_skipped > 0;
  bool chain_usable = true;
  std::uint64_t start = 0;
  if (recovery_.snapshot_loaded) {
    start = recovery_.base_generation;
  } else if (!snapshot_gens.empty() && !journal_gens.contains(0)) {
    // Every snapshot is damaged and the from-empty chain (journal.0 onward)
    // is gone: journals whose base snapshot is unreadable cannot be
    // replayed. Recover what we have — an empty server — and re-checkpoint.
    chain_usable = false;
  }
  // Replay the journal chain: journal.g's final state is snapshot.(g+1)'s
  // contents, so a run of consecutive journals substitutes for any snapshot
  // we failed to read above.
  if (chain_usable) {
    for (std::uint64_t g = start; g <= newest; ++g) {
      if (!backend_.exists(journal_name(g))) {
        if (g < newest) chain_broken = true;  // lost a middle link
        break;
      }
      const JournalScan scan = scan_journal(backend_.read(journal_name(g)));
      if (!scan.header_valid) {
        recovery_.truncated_bytes += scan.dropped_bytes;
        chain_broken = true;
        break;
      }
      journal_records_ = 0;
      bool record_failed = false;
      for (const JournalRecord& record : scan.records) {
        try {
          replay(record);
          ++recovery_.records_replayed;
          ++journal_records_;
        } catch (const std::exception&) {
          // A record that journaled but no longer applies (should not
          // happen: appends are pre-validated). Everything after it may
          // depend on its effects, so the chain stops here.
          ++recovery_.records_skipped;
          record_failed = true;
          break;
        }
      }
      ++recovery_.journals_replayed;
      if (record_failed || scan.dropped_bytes > 0) {
        recovery_.truncated_bytes += scan.dropped_bytes;
        chain_broken = true;
        break;
      }
    }
  }

  generation_ = newest;
  if (!backend_.exists(journal_name(generation_))) {
    backend_.append(journal_name(generation_), std::string(kJournalMagic));
    backend_.flush(journal_name(generation_));
    journal_records_ = 0;
  }
  if (chain_broken) {
    // Heal: re-checkpoint the recovered state so the next recovery reads one
    // clean snapshot instead of re-walking the damage.
    rotate();
    recovery_.rotated_after_recovery = true;
  }
}

void DurableInventoryServer::replay(const JournalRecord& record) {
  if (const auto* enroll = std::get_if<EnrollRecord>(&record)) {
    (void)server_.enroll(enroll->tags, enroll->config);
  } else if (const auto* trp = std::get_if<TrpRoundRecord>(&record)) {
    (void)server_.submit_trp(server::GroupId{trp->group}, trp->challenge,
                             trp->reported);
  } else if (const auto* utrp = std::get_if<UtrpRoundRecord>(&record)) {
    (void)server_.submit_utrp(server::GroupId{utrp->group}, utrp->challenge,
                              utrp->reported, utrp->deadline_met);
  } else {
    const auto& resync = std::get<ResyncRecord>(record);
    server_.resync(server::GroupId{resync.group}, resync.audited);
  }
}

void DurableInventoryServer::journal_append(const JournalRecord& record) {
  // Auto-checkpoint BEFORE appending, never after: at this point the previous
  // mutation is fully applied, so the snapshot is complete. Rotating after
  // the append would checkpoint a server that has not yet applied `record`
  // while abandoning the journal that carries it — losing the mutation.
  if (config_.rotate_after_records > 0 &&
      journal_records_ >= config_.rotate_after_records) {
    rotate();
  }
  const std::string name = journal_name(generation_);
  const std::string encoded = encode_record(record);
  try {
    backend_.append(name, encoded);
    backend_.flush(name);
  } catch (const IoError&) {
    if (instruments_.journal_append_failures != nullptr) {
      instruments_.journal_append_failures->inc();
    }
    // The failed append may have landed a torn prefix, and a torn frame
    // swallows every record behind it (scan_journal truncates there). Abandon
    // this journal by checkpointing onto a fresh generation, then surface the
    // failure — the mutation did not happen. Only IoError is healed here: an
    // injected crash (fault/storage_fault.h) is the end of the process and
    // must propagate without further storage traffic.
    rotate();
    throw;
  }
  ++journal_records_;
  if (instruments_.journal_appends != nullptr) {
    instruments_.journal_appends->inc();
    instruments_.journal_bytes->inc(encoded.size());
  }
}

server::GroupId DurableInventoryServer::enroll(const tag::TagSet& tags,
                                               server::GroupConfig config) {
  // Pre-validate everything replay relies on: a record must never be
  // journaled unless applying it is guaranteed to succeed.
  RFID_EXPECT(!tags.empty(), "cannot enroll an empty group");
  RFID_EXPECT(config.name.find('\n') == std::string::npos,
              "group names must be single-line");
  for (std::size_t i = 0; i < server_.group_count(); ++i) {
    RFID_EXPECT(server_.config(server::GroupId{i}).name != config.name,
                "duplicate group name (snapshots key groups by name)");
  }
  journal_append(EnrollRecord{config, tags});
  return server_.enroll(tags, std::move(config));
}

protocol::Verdict DurableInventoryServer::submit_trp(
    server::GroupId id, const protocol::TrpChallenge& challenge,
    const bits::Bitstring& reported) {
  RFID_EXPECT(server_.config(id).protocol == server::ProtocolKind::kTrp,
              "group is not a TRP group");
  RFID_EXPECT(reported.size() == challenge.frame_size,
              "reported bitstring must span the challenge frame");
  journal_append(TrpRoundRecord{id.index, challenge, reported});
  return server_.submit_trp(id, challenge, reported);
}

protocol::Verdict DurableInventoryServer::submit_utrp(
    server::GroupId id, const protocol::UtrpChallenge& challenge,
    const bits::Bitstring& reported, bool deadline_met) {
  RFID_EXPECT(server_.config(id).protocol == server::ProtocolKind::kUtrp,
              "group is not a UTRP group");
  RFID_EXPECT(reported.size() == challenge.frame_size,
              "reported bitstring must span the challenge frame");
  RFID_EXPECT(challenge.seeds.size() == challenge.frame_size,
              "UTRP challenge must carry one seed per slot");
  journal_append(UtrpRoundRecord{id.index, challenge, reported, deadline_met});
  return server_.submit_utrp(id, challenge, reported, deadline_met);
}

void DurableInventoryServer::resync(server::GroupId id,
                                    const tag::TagSet& audited) {
  RFID_EXPECT(server_.config(id).protocol == server::ProtocolKind::kUtrp,
              "only UTRP groups carry a mirror to resync");
  RFID_EXPECT(audited.size() == server_.group_size(id),
              "audit must cover the enrolled group");
  journal_append(ResyncRecord{id.index, audited});
  server_.resync(id, audited);
}

void DurableInventoryServer::rotate() {
  const std::uint64_t next = generation_ + 1;
  // The new snapshot appears atomically and only with its full contents
  // durable. The old generation stays readable until the new one is
  // committed, so a crash anywhere in here loses nothing.
  replace_atomically(backend_, snapshot_name(next),
                     config_.prefix + ".snapshot.tmp", dump_state(server_));
  backend_.append(journal_name(next), std::string(kJournalMagic));
  backend_.flush(journal_name(next));
  generation_ = next;
  journal_records_ = 0;
  if (instruments_.rotations != nullptr) instruments_.rotations->inc();
  remove_stale_generations();
}

void DurableInventoryServer::remove_stale_generations() {
  if (generation_ < config_.keep_generations) return;
  const std::uint64_t cutoff = generation_ - config_.keep_generations;
  for (const std::string& name : backend_.list()) {
    const auto snap = parse_generation(name, config_.prefix + ".snapshot.");
    const auto jrnl = parse_generation(name, config_.prefix + ".journal.");
    const std::optional<std::uint64_t> gen = snap ? snap : jrnl;
    if (gen.has_value() && *gen <= cutoff) backend_.remove(name);
  }
}

}  // namespace rfid::storage
