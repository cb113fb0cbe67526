#include "protocol/trp.h"

#include "obs/catalog.h"
#include "util/expect.h"

namespace rfid::protocol {

TrpServer::TrpServer(std::vector<tag::TagId> ids, MonitoringPolicy policy,
                     hash::SlotHasher hasher)
    : TrpServer(tag::ColumnarTagSet::from_ids(ids), policy, hasher) {}

TrpServer::TrpServer(tag::ColumnarTagSet enrolled, MonitoringPolicy policy,
                     hash::SlotHasher hasher)
    : TrpServer(std::make_shared<const tag::ColumnarTagSet>(std::move(enrolled)),
                policy, hasher) {}

TrpServer::TrpServer(std::shared_ptr<const tag::ColumnarTagSet> enrolled,
                     MonitoringPolicy policy, hash::SlotHasher hasher)
    : tags_(std::move(enrolled)), policy_(policy), hasher_(hasher) {
  RFID_EXPECT(tags_ != nullptr && !tags_->empty(),
              "cannot monitor an empty group");
  RFID_EXPECT(policy_.tolerated_missing + 1 <= tags_->size(),
              "tolerance m must satisfy m + 1 <= n");
  plan_ = math::optimize_trp_frame(tags_->size(), policy_.tolerated_missing,
                                   policy_.confidence, policy_.model);
}

void TrpServer::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  namespace cat = obs::catalog;
  instruments_.challenges = &cat::challenges_total(*registry, "trp");
  instruments_.rounds_intact = &cat::rounds_total(*registry, "trp", "intact");
  instruments_.rounds_mismatch =
      &cat::rounds_total(*registry, "trp", "mismatch");
  instruments_.slots = &cat::slots_total(*registry, "trp");
  instruments_.mismatched_slots = &cat::mismatched_slots_total(*registry, "trp");
  instruments_.bulk_slots = &cat::bulk_slots_total(*registry, "trp_frame");
  instruments_.frame_size = &cat::frame_size(*registry, "trp");
}

TrpChallenge TrpServer::issue_challenge(util::Rng& rng) const {
  if (instruments_.challenges != nullptr) {
    instruments_.challenges->inc();
    instruments_.frame_size->observe(static_cast<double>(plan_.frame_size));
  }
  return TrpChallenge{plan_.frame_size, rng()};
}

bits::Bitstring TrpServer::expected_bitstring(const TrpChallenge& challenge) const {
  RFID_EXPECT(challenge.frame_size >= 1, "challenge has no slots");
  if (instruments_.bulk_slots != nullptr) {
    instruments_.bulk_slots->inc(tags_->size());
  }
  return tag::bulk_trp_frame(hasher_, tags_->slot_words(), challenge.r,
                             challenge.frame_size);
}

Verdict TrpServer::verify(const TrpChallenge& challenge,
                          const bits::Bitstring& reported) const {
  return verify_against(challenge, expected_bitstring(challenge), reported);
}

Verdict TrpServer::verify_with_expected(const TrpChallenge& challenge,
                                        const bits::Bitstring& expected,
                                        const bits::Bitstring& reported) const {
  RFID_EXPECT(expected.size() == challenge.frame_size,
              "cached expectation does not match the challenge frame");
  return verify_against(challenge, expected, reported);
}

Verdict TrpServer::verify_against(const TrpChallenge& challenge,
                                  const bits::Bitstring& expected,
                                  const bits::Bitstring& reported) const {
  RFID_EXPECT(reported.size() == expected.size(),
              "reported bitstring has wrong length");
  Verdict verdict;
  verdict.mismatched_slots = expected.hamming_distance(reported);
  verdict.intact = verdict.mismatched_slots == 0;
  if (!verdict.intact) {
    verdict.first_mismatch_slot = *expected.first_difference(reported);
  }
  if (instruments_.slots != nullptr) {
    instruments_.slots->inc(challenge.frame_size);
    instruments_.mismatched_slots->inc(verdict.mismatched_slots);
    (verdict.intact ? instruments_.rounds_intact : instruments_.rounds_mismatch)
        ->inc();
  }
  return verdict;
}

bits::Bitstring TrpReader::scan(std::span<const tag::Tag> present,
                                const TrpChallenge& challenge,
                                util::Rng& rng) const {
  return scan_observed(present, challenge, rng).bitstring;
}

radio::FrameObservation TrpReader::scan_observed(std::span<const tag::Tag> present,
                                                 const TrpChallenge& challenge,
                                                 util::Rng& rng) const {
  RFID_EXPECT(challenge.frame_size >= 1, "challenge has no slots");
  return radio::simulate_frame(present, hasher_, challenge.r,
                               challenge.frame_size, channel_, rng);
}

}  // namespace rfid::protocol
