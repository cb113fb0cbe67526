#include "server/inventory_server.h"

#include "obs/catalog.h"
#include "util/codec.h"
#include "util/expect.h"

namespace rfid::server {

namespace {

/// Lowercase protocol label shared with the protocol engines' own series.
[[nodiscard]] std::string_view protocol_label(ProtocolKind kind) noexcept {
  return kind == ProtocolKind::kTrp ? "trp" : "utrp";
}

}  // namespace

std::string_view to_string(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kTrp: return "TRP";
    case ProtocolKind::kUtrp: return "UTRP";
  }
  return "unknown";
}

void put(util::Encoder& out, ProtocolKind kind) {
  out.put_u8(static_cast<std::uint8_t>(kind));
}

void get(util::Decoder& in, ProtocolKind& kind) {
  const std::uint8_t raw = in.get_u8();
  RFID_EXPECT(raw <= static_cast<std::uint8_t>(ProtocolKind::kUtrp),
              "bad protocol kind");
  kind = static_cast<ProtocolKind>(raw);
}

std::string_view to_string(AlertKind kind) noexcept {
  switch (kind) {
    case AlertKind::kRoundFailure: return "round-failure";
    case AlertKind::kResync: return "resync";
  }
  return "unknown";
}

GroupId InventoryServer::enroll(const tag::TagSet& tags, GroupConfig config) {
  RFID_EXPECT(!tags.empty(), "cannot enroll an empty group");
  const GroupId id{groups_.size()};
  if (config.protocol == ProtocolKind::kTrp) {
    protocol::TrpServer engine(tags.ids(), config.policy, hasher_);
    groups_.push_back(Group{std::move(config), std::move(engine), 0});
  } else {
    protocol::UtrpServer engine(tags, config.policy, config.comm_budget,
                                config.slack_slots, hasher_);
    groups_.push_back(Group{std::move(config), std::move(engine), 0});
  }
  Group& g = groups_.back();
  if (metrics_ != nullptr) {
    std::visit([&](auto& engine) { engine.set_metrics(metrics_); }, g.engine);
    obs::catalog::groups_enrolled_total(*metrics_,
                                        protocol_label(g.config.protocol))
        .inc();
  }
  return id;
}

void InventoryServer::re_enroll(GroupId id, const tag::TagSet& tags,
                                GroupConfig config) {
  RFID_EXPECT(!tags.empty(), "cannot re-enroll an empty group");
  Group& g = group(id);
  if (config.protocol == ProtocolKind::kTrp) {
    g.engine = protocol::TrpServer(tags.ids(), config.policy, hasher_);
  } else {
    g.engine = protocol::UtrpServer(tags, config.policy, config.comm_budget,
                                    config.slack_slots, hasher_);
  }
  g.config = std::move(config);
  g.rounds = 0;
  g.active = true;
  invalidate_expected(id);
  if (metrics_ != nullptr) {
    std::visit([&](auto& engine) { engine.set_metrics(metrics_); }, g.engine);
    obs::catalog::groups_enrolled_total(*metrics_,
                                        protocol_label(g.config.protocol))
        .inc();
  }
}

void InventoryServer::decommission(GroupId id) {
  Group& g = group(id);
  RFID_EXPECT(g.active, "group is already decommissioned");
  g.active = false;
  invalidate_expected(id);
}

bool InventoryServer::active(GroupId id) const { return group(id).active; }

void InventoryServer::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  for (Group& g : groups_) {
    std::visit([&](auto& engine) { engine.set_metrics(registry); }, g.engine);
  }
}

const InventoryServer::Group& InventoryServer::group(GroupId id) const {
  RFID_EXPECT(id.index < groups_.size(), "unknown group");
  return groups_[id.index];
}

InventoryServer::Group& InventoryServer::group(GroupId id) {
  RFID_EXPECT(id.index < groups_.size(), "unknown group");
  return groups_[id.index];
}

const GroupConfig& InventoryServer::config(GroupId id) const {
  return group(id).config;
}

std::uint64_t InventoryServer::group_size(GroupId id) const {
  const Group& g = group(id);
  if (const auto* trp = std::get_if<protocol::TrpServer>(&g.engine)) {
    return trp->group_size();
  }
  return std::get<protocol::UtrpServer>(g.engine).group_size();
}

std::uint32_t InventoryServer::frame_size(GroupId id) const {
  const Group& g = group(id);
  if (const auto* trp = std::get_if<protocol::TrpServer>(&g.engine)) {
    return trp->frame_size();
  }
  return std::get<protocol::UtrpServer>(g.engine).frame_size();
}

std::uint64_t InventoryServer::rounds_completed(GroupId id) const {
  return group(id).rounds;
}

protocol::TrpChallenge InventoryServer::challenge_trp(GroupId id,
                                                      util::Rng& rng) const {
  const Group& g = group(id);
  RFID_EXPECT(g.active, "group is decommissioned");
  const auto* trp = std::get_if<protocol::TrpServer>(&g.engine);
  RFID_EXPECT(trp != nullptr, "group is not a TRP group");
  return trp->issue_challenge(rng);
}

protocol::Verdict InventoryServer::submit_trp(
    GroupId id, const protocol::TrpChallenge& challenge,
    const bits::Bitstring& reported) {
  Group& g = group(id);
  RFID_EXPECT(g.active, "group is decommissioned");
  const auto* trp = std::get_if<protocol::TrpServer>(&g.engine);
  RFID_EXPECT(trp != nullptr, "group is not a TRP group");
  protocol::Verdict verdict;
  if (const bits::Bitstring* cached = find_expected(id, challenge)) {
    if (metrics_ != nullptr) {
      obs::catalog::expected_cache_total(*metrics_, "hit").inc();
    }
    verdict = trp->verify_with_expected(challenge, *cached, reported);
  } else {
    if (metrics_ != nullptr) {
      obs::catalog::expected_cache_total(*metrics_, "miss").inc();
    }
    bits::Bitstring expected = trp->expected_bitstring(challenge);
    verdict = trp->verify_with_expected(challenge, expected, reported);
    store_expected(id, challenge, std::move(expected));
  }
  ++g.rounds;
  if (metrics_ != nullptr) {
    obs::catalog::verdicts_total(*metrics_, "trp",
                                 verdict.intact ? "intact" : "violated")
        .inc();
  }
  if (!verdict.intact) record_alert(id, verdict, reported);
  return verdict;
}

protocol::UtrpChallenge InventoryServer::challenge_utrp(GroupId id,
                                                        util::Rng& rng) const {
  const Group& g = group(id);
  RFID_EXPECT(g.active, "group is decommissioned");
  const auto* utrp = std::get_if<protocol::UtrpServer>(&g.engine);
  RFID_EXPECT(utrp != nullptr, "group is not a UTRP group");
  return utrp->issue_challenge(rng);
}

protocol::Verdict InventoryServer::submit_utrp(
    GroupId id, const protocol::UtrpChallenge& challenge,
    const bits::Bitstring& reported, bool deadline_met) {
  Group& g = group(id);
  RFID_EXPECT(g.active, "group is decommissioned");
  auto* utrp = std::get_if<protocol::UtrpServer>(&g.engine);
  RFID_EXPECT(utrp != nullptr, "group is not a UTRP group");
  const protocol::Verdict verdict =
      utrp->commit_round(challenge, reported, deadline_met);
  ++g.rounds;
  if (metrics_ != nullptr) {
    obs::catalog::verdicts_total(*metrics_, "utrp",
                                 verdict.intact ? "intact" : "violated")
        .inc();
  }
  if (!verdict.intact) record_alert(id, verdict, reported);
  return verdict;
}

bool InventoryServer::needs_resync(GroupId id) const {
  const Group& g = group(id);
  if (const auto* utrp = std::get_if<protocol::UtrpServer>(&g.engine)) {
    return utrp->needs_resync();
  }
  return false;
}

void InventoryServer::resync(GroupId id, const tag::TagSet& audited) {
  Group& g = group(id);
  auto* utrp = std::get_if<protocol::UtrpServer>(&g.engine);
  RFID_EXPECT(utrp != nullptr, "only UTRP groups carry a mirror to resync");
  utrp->resync(audited);
  invalidate_expected(id);

  Alert alert;
  alert.sequence = next_alert_sequence_++;
  alert.kind = AlertKind::kResync;
  alert.group = id;
  alert.group_name = g.config.name;
  alert.round = g.rounds;
  alert.enrolled_size = utrp->group_size();
  alert.estimated_present = static_cast<double>(audited.size());
  alerts_.push_back(std::move(alert));
  if (metrics_ != nullptr) {
    obs::catalog::alerts_total(*metrics_, "resync").inc();
    obs::catalog::resyncs_total(*metrics_).inc();
  }
}

tag::TagSet InventoryServer::utrp_mirror(GroupId id) const {
  const Group& g = group(id);
  const auto* utrp = std::get_if<protocol::UtrpServer>(&g.engine);
  RFID_EXPECT(utrp != nullptr, "only UTRP groups carry a mirror");
  return utrp->mirror().to_tag_set();
}

tag::TagSet InventoryServer::group_tags(GroupId id) const {
  const Group& g = group(id);
  if (const auto* trp = std::get_if<protocol::TrpServer>(&g.engine)) {
    std::vector<tag::Tag> tags;
    tags.reserve(trp->ids().size());
    for (const tag::TagId tid : trp->ids()) tags.emplace_back(tid);
    return tag::TagSet(std::move(tags));
  }
  return utrp_mirror(id);
}

InventoryServer::GroupState InventoryServer::group_state(GroupId id) const {
  return GroupState{rounds_completed(id), needs_resync(id), active(id)};
}

void InventoryServer::restore_history(std::vector<Alert> alerts,
                                      const std::vector<GroupState>& states) {
  RFID_EXPECT(states.size() == groups_.size(),
              "one GroupState per enrolled group");
  RFID_EXPECT(alerts_.empty() && next_alert_sequence_ == 0,
              "restore_history applies to a freshly restored server");
  for (std::size_t i = 0; i < states.size(); ++i) {
    Group& g = groups_[i];
    RFID_EXPECT(g.rounds == 0, "restore_history applies before any rounds");
    g.rounds = states[i].rounds;
    g.active = states[i].active;
    if (states[i].needs_resync) {
      auto* utrp = std::get_if<protocol::UtrpServer>(&g.engine);
      RFID_EXPECT(utrp != nullptr, "needs_resync restored onto a TRP group");
      utrp->mark_needs_resync();
    }
  }
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    RFID_EXPECT(alerts[i].group.index < groups_.size(),
                "restored alert references an unknown group");
    RFID_EXPECT(i == 0 || alerts[i - 1].sequence < alerts[i].sequence,
                "restored alert sequences must be strictly increasing");
  }
  if (!alerts.empty()) next_alert_sequence_ = alerts.back().sequence + 1;
  alerts_ = std::move(alerts);
}

const bits::Bitstring* InventoryServer::find_expected(
    GroupId id, const protocol::TrpChallenge& challenge) const {
  for (const CachedExpectation& entry : expected_cache_) {
    if (entry.group == id.index && entry.r == challenge.r &&
        entry.frame_size == challenge.frame_size) {
      return &entry.expected;
    }
  }
  return nullptr;
}

void InventoryServer::store_expected(GroupId id,
                                     const protocol::TrpChallenge& challenge,
                                     bits::Bitstring expected) {
  CachedExpectation entry{id.index, challenge.r, challenge.frame_size,
                          std::move(expected)};
  if (expected_cache_.size() < kExpectedCacheCapacity) {
    expected_cache_.push_back(std::move(entry));
    return;
  }
  expected_cache_[expected_cache_next_] = std::move(entry);
  expected_cache_next_ = (expected_cache_next_ + 1) % kExpectedCacheCapacity;
}

void InventoryServer::invalidate_expected(GroupId id) {
  const std::size_t before = expected_cache_.size();
  std::erase_if(expected_cache_, [&](const CachedExpectation& entry) {
    return entry.group == id.index;
  });
  const std::size_t dropped = before - expected_cache_.size();
  expected_cache_next_ = 0;  // cache shrank; resume FIFO from the front
  if (dropped > 0 && metrics_ != nullptr) {
    obs::catalog::expected_cache_invalidations_total(*metrics_).inc(dropped);
  }
}

void InventoryServer::record_alert(GroupId id, const protocol::Verdict& verdict,
                                   const bits::Bitstring& reported) {
  Group& g = group(id);
  Alert alert;
  alert.sequence = next_alert_sequence_++;
  alert.group = id;
  alert.group_name = g.config.name;
  alert.round = g.rounds;
  alert.mismatched_slots = verdict.mismatched_slots;
  alert.deadline_missed = !verdict.deadline_met;
  alert.enrolled_size = group_size(id);
  alert.estimated_present = estimate::estimate_cardinality(reported).estimate;
  alerts_.push_back(std::move(alert));
  if (metrics_ != nullptr) {
    obs::catalog::alerts_total(*metrics_, "round_failure").inc();
  }
}

}  // namespace rfid::server
