// Deterministic battery for the observability subsystem: registry and
// family semantics, histogram bucket/quantile properties on randomized
// inputs, exposition rendering and escaping, tracer span trees on a manual
// clock, the session-summary ring, and the end-to-end wiring — a TRP round
// with known (n, f, r) must land exactly the expected counter deltas, and a
// full wire session must agree with its own SessionOutcome. The
// multi-threaded hammer lives in obs_concurrency_test.cpp; byte-exact
// exposition of a seeded scenario in obs_golden_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fleet/fleet.h"
#include "obs/catalog.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "protocol/multi_round.h"
#include "service/client.h"
#include "service/service.h"
#include "protocol/trp.h"
#include "protocol/utrp.h"
#include "server/group_planner.h"
#include "server/inventory_server.h"
#include "sim/event_queue.h"
#include "storage/backend.h"
#include "storage/durable_server.h"
#include "tag/tag_set.h"
#include "util/random.h"
#include "wire/session.h"

namespace {

using namespace rfid;
namespace cat = obs::catalog;

// ------------------------------------------------------------- counters --

TEST(ObsCounter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

// ------------------------------------------------------------- registry --

TEST(ObsRegistry, ReregistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter_family("x_total", "Help.", {"k"});
  auto& b = reg.counter_family("x_total", "Help.", {"k"});
  EXPECT_EQ(&a, &b);
  a.with({"v"}).inc();
  EXPECT_EQ(b.with({"v"}).value(), 1u);
}

TEST(ObsRegistry, ConflictingLabelsRejected) {
  obs::MetricsRegistry reg;
  (void)reg.counter_family("x_total", "Help.", {"k"});
  EXPECT_THROW((void)reg.counter_family("x_total", "Help.", {"other"}),
               std::invalid_argument);
}

TEST(ObsRegistry, CrossTypeNameCollisionRejected) {
  obs::MetricsRegistry reg;
  (void)reg.counter_family("x_total", "Help.", {});
  EXPECT_THROW((void)reg.gauge_family("x_total", "Help.", {}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram_family("x_total", "Help.", {}, {1.0}),
               std::invalid_argument);
}

TEST(ObsRegistry, HistogramBoundsMustMatchOnReregistration) {
  obs::MetricsRegistry reg;
  (void)reg.histogram_family("h", "Help.", {}, {1.0, 2.0});
  EXPECT_NO_THROW((void)reg.histogram_family("h", "Help.", {}, {1.0, 2.0}));
  EXPECT_THROW((void)reg.histogram_family("h", "Help.", {}, {1.0, 3.0}),
               std::invalid_argument);
}

TEST(ObsRegistry, InvalidNamesRejected) {
  obs::MetricsRegistry reg;
  EXPECT_THROW((void)reg.counter("", "Help."), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("0starts_with_digit", "Help."),
               std::invalid_argument);
  EXPECT_THROW((void)reg.counter("has space", "Help."), std::invalid_argument);
  EXPECT_THROW((void)reg.counter_family("ok_total", "Help.", {"bad:label"}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)reg.counter("ns:ok_total", "Help."));
}

TEST(ObsRegistry, LabelCardinalityEnforced) {
  obs::MetricsRegistry reg;
  auto& family = reg.counter_family("x_total", "Help.", {"a", "b"});
  EXPECT_THROW((void)family.with({"only-one"}), std::invalid_argument);
  EXPECT_NO_THROW((void)family.with({"one", "two"}));
}

TEST(ObsRegistry, SeriesReferencesAreStable) {
  // Map nodes must never move: resolve one series, create many more, and
  // the original reference must still be the live series.
  obs::MetricsRegistry reg;
  auto& family = reg.counter_family("x_total", "Help.", {"k"});
  obs::Counter& first = family.with({"v0"});
  first.inc();
  for (int i = 1; i < 200; ++i) {
    // std::string + append, not "v" + to_string(...): the const char* +
    // string&& overload trips a GCC 12 -Wrestrict false positive at -O2.
    std::string label("v");
    label += std::to_string(i);
    family.with({label}).inc(2);
  }
  EXPECT_EQ(first.value(), 1u);
  EXPECT_EQ(&first, &family.with({"v0"}));
}

// ------------------------------------------------------------ histogram --

TEST(ObsHistogram, BucketAssignmentIsInclusiveUpperBound) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive ceiling)
  h.observe(1.5);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(100.0); // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(ObsHistogram, RejectsUnsortedOrEmptyBounds) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, ExponentialBounds) {
  const auto bounds = obs::Histogram::exponential_bounds(16.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 16.0);
  EXPECT_DOUBLE_EQ(bounds[1], 32.0);
  EXPECT_DOUBLE_EQ(bounds[2], 64.0);
  EXPECT_DOUBLE_EQ(bounds[3], 128.0);
}

TEST(ObsHistogram, HdrBoundsAreLogLinearWithBoundedRelativeWidth) {
  constexpr unsigned kSub = 16;
  const auto bounds = obs::Histogram::hdr_bounds(10.0, 1e5, kSub);
  ASSERT_GE(bounds.size(), 2u);
  // Bucket 0 covers values up to min + min/sub, so estimates for values at
  // min_value itself stay within the relative-error bound.
  EXPECT_DOUBLE_EQ(bounds.front(), 10.0 * (1.0 + 1.0 / kSub));
  EXPECT_GE(bounds.back(), 1e5);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    ASSERT_LT(bounds[i - 1], bounds[i]);
    // Bucket width <= lower_edge / sub — the invariant behind the quantile
    // error bound.
    EXPECT_LE(bounds[i] - bounds[i - 1],
              bounds[i - 1] / kSub * (1.0 + 1e-12));
  }
}

TEST(ObsHistogram, EmptyAndOverflowQuantiles) {
  obs::Histogram h({1.0, 2.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(10.0);                  // only the overflow bucket
  EXPECT_TRUE(std::isinf(h.quantile(0.99)));
}

TEST(ObsHistogram, QuantileRelativeErrorBoundedOnRandomizedInputs) {
  // Property: for HDR bounds with `sub` sub-buckets per octave, quantile
  // estimates on values inside [min, max) carry relative error <= 1/sub.
  constexpr unsigned kSub = 32;
  constexpr double kMin = 1.0;
  constexpr double kMax = 1e6;
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    util::Rng rng(seed);
    obs::Histogram h(obs::Histogram::hdr_bounds(kMin, kMax, kSub));
    std::vector<double> values;
    constexpr int kN = 20000;
    values.reserve(kN);
    for (int i = 0; i < kN; ++i) {
      // Log-uniform spread, so every octave sees traffic.
      const double v = kMin * std::pow(kMax / kMin, rng.uniform()) * 0.999;
      values.push_back(v);
      h.observe(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(std::max(
          1.0, std::ceil(q * static_cast<double>(values.size()))));
      const double exact = values[rank - 1];
      const double estimate = h.quantile(q);
      EXPECT_NEAR(estimate, exact, exact / kSub + 1e-9)
          << "seed=" << seed << " q=" << q;
    }
  }
}

// ----------------------------------------------------------- exposition --

TEST(ObsExpose, FormatDoubleShortestRoundTrip) {
  EXPECT_EQ(obs::format_double(13.0), "13");
  EXPECT_EQ(obs::format_double(0.25), "0.25");
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(obs::format_double(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(obs::format_double(std::nan("")), "NaN");
}

TEST(ObsExpose, PrometheusRenderingIsExact) {
  obs::MetricsRegistry reg;
  reg.counter_family("t_requests_total", "Requests.", {"method"})
      .with({"get"})
      .inc(3);
  reg.gauge("t_temp", "Temp.").set(1.5);
  obs::Histogram& h = reg.histogram("t_lat", "Latency.", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);

  const std::string expected =
      "# HELP t_lat Latency.\n"
      "# TYPE t_lat histogram\n"
      "t_lat_bucket{le=\"1\"} 1\n"
      "t_lat_bucket{le=\"2\"} 2\n"
      "t_lat_bucket{le=\"+Inf\"} 3\n"
      "t_lat_sum 7\n"
      "t_lat_count 3\n"
      "# HELP t_requests_total Requests.\n"
      "# TYPE t_requests_total counter\n"
      "t_requests_total{method=\"get\"} 3\n"
      "# HELP t_temp Temp.\n"
      "# TYPE t_temp gauge\n"
      "t_temp 1.5\n";
  EXPECT_EQ(obs::render_prometheus(reg.snapshot()), expected);
}

TEST(ObsExpose, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry reg;
  reg.counter_family("t_total", "Help.", {"k"})
      .with({"a\\b\"c\nd"})
      .inc();
  const std::string out = obs::render_prometheus(reg.snapshot());
  EXPECT_NE(out.find("t_total{k=\"a\\\\b\\\"c\\nd\"} 1\n"), std::string::npos);
}

TEST(ObsExpose, SeriesSortedByLabelValues) {
  obs::MetricsRegistry reg;
  auto& family = reg.counter_family("t_total", "Help.", {"k"});
  family.with({"zebra"}).inc();
  family.with({"alpha"}).inc();
  const std::string out = obs::render_prometheus(reg.snapshot());
  EXPECT_LT(out.find("alpha"), out.find("zebra"));
}

TEST(ObsExpose, JsonCarriesAllKindsAndSessions) {
  obs::MetricsRegistry reg;
  reg.counter("t_c_total", "C.").inc(2);
  reg.gauge("t_g", "G.").set(0.5);
  reg.histogram("t_h", "H.", {1.0}).observe(3.0);
  obs::SessionLog log(4);
  obs::SessionSummary summary;
  summary.protocol = "trp";
  summary.group = "shelf \"a\"";
  summary.completed = true;
  summary.outcome = "completed";
  summary.rounds_completed = 2;
  log.record(summary);

  const std::string out = obs::render_json(reg.snapshot(), &log);
  EXPECT_NE(out.find("\"counters\": ["), std::string::npos);
  EXPECT_NE(out.find("{\"name\":\"t_c_total\""), std::string::npos);
  EXPECT_NE(out.find("\"value\":2}"), std::string::npos);
  EXPECT_NE(out.find("{\"name\":\"t_g\""), std::string::npos);
  EXPECT_NE(out.find("\"upperBounds\":[1]"), std::string::npos);
  EXPECT_NE(out.find("\"bucketCounts\":[0,1],\"count\":1,\"sum\":3"),
            std::string::npos);
  EXPECT_NE(out.find("\"group\":\"shelf \\\"a\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"roundsCompleted\":2"), std::string::npos);
}

// --------------------------------------------------------------- tracer --

TEST(ObsTracer, SpanTreeOnManualClock) {
  double now = 0.0;
  obs::Tracer tracer([&now] { return now; });
  const auto session = tracer.begin_span("session");
  tracer.annotate(session, "protocol", "trp");
  now = 10.0;
  const auto round = tracer.begin_span("round", session);
  now = 25.0;
  tracer.end_span(round);
  now = 30.0;
  tracer.end_span(session);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const obs::Span& s = tracer.spans()[0];
  const obs::Span& r = tracer.spans()[1];
  EXPECT_EQ(s.id, 1u);
  EXPECT_EQ(s.parent, obs::Tracer::kNoSpan);
  EXPECT_DOUBLE_EQ(s.start_us, 0.0);
  EXPECT_DOUBLE_EQ(s.end_us, 30.0);
  EXPECT_EQ(r.parent, s.id);
  EXPECT_DOUBLE_EQ(r.duration_us(), 15.0);

  const std::string rendered = tracer.render();
  EXPECT_EQ(rendered,
            "session [0, 30) dur=30us protocol=trp\n"
            "  round [10, 25) dur=15us\n");
}

TEST(ObsTracer, EndSpanIsIdempotentAndNoSpanIsNoOp) {
  double now = 0.0;
  obs::Tracer tracer([&now] { return now; });
  const auto span = tracer.begin_span("x");
  now = 5.0;
  tracer.end_span(span);
  now = 50.0;
  tracer.end_span(span);  // must not move the end time
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_us, 5.0);
  tracer.end_span(obs::Tracer::kNoSpan);
  tracer.annotate(obs::Tracer::kNoSpan, "k", "v");
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(ObsTracer, BoundedStoreCountsDrops) {
  double now = 0.0;
  obs::Tracer tracer([&now] { return now; }, 2);
  EXPECT_NE(tracer.begin_span("a"), obs::Tracer::kNoSpan);
  EXPECT_NE(tracer.begin_span("b"), obs::Tracer::kNoSpan);
  EXPECT_EQ(tracer.begin_span("c"), obs::Tracer::kNoSpan);
  EXPECT_EQ(tracer.dropped_spans(), 1u);
  tracer.clear();
  EXPECT_NE(tracer.begin_span("d"), obs::Tracer::kNoSpan);
}

// ---------------------------------------------------------- session log --

TEST(ObsSessionLog, RingEvictsOldestFirst) {
  obs::SessionLog log(2);
  for (int i = 0; i < 3; ++i) {
    obs::SessionSummary s;
    s.group = "g" + std::to_string(i);
    log.record(s);
  }
  const auto recent = log.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].group, "g1");
  EXPECT_EQ(recent[1].group, "g2");
  EXPECT_EQ(log.total_recorded(), 3u);
}

// ------------------------------------------- protocol counter deltas ----

TEST(ObsProtocol, TrpRoundLandsExactCounterDeltas) {
  util::Rng rng(7);
  const tag::TagSet set = tag::TagSet::make_random(100, rng);
  protocol::TrpServer server(set.ids(),
                             {.tolerated_missing = 2, .confidence = 0.9});
  obs::MetricsRegistry reg;
  server.set_metrics(&reg);

  const auto challenge = server.issue_challenge(rng);
  EXPECT_EQ(challenge.frame_size, server.frame_size());
  const auto intact_report = server.expected_bitstring(challenge);
  EXPECT_TRUE(server.verify(challenge, intact_report).intact);

  EXPECT_EQ(cat::challenges_total(reg, "trp").value(), 1u);
  EXPECT_EQ(cat::rounds_total(reg, "trp", "intact").value(), 1u);
  EXPECT_EQ(cat::rounds_total(reg, "trp", "mismatch").value(), 0u);
  EXPECT_EQ(cat::slots_total(reg, "trp").value(), server.frame_size());
  EXPECT_EQ(cat::mismatched_slots_total(reg, "trp").value(), 0u);
  EXPECT_EQ(cat::frame_size(reg, "trp").count(), 1u);
  EXPECT_DOUBLE_EQ(cat::frame_size(reg, "trp").sum(),
                   static_cast<double>(server.frame_size()));

  // Flip exactly one slot: one mismatched slot, one mismatch round, and
  // another frame's worth of slots.
  bits::Bitstring tampered = intact_report;
  tampered.set(0, !tampered.test(0));
  EXPECT_FALSE(server.verify(challenge, tampered).intact);
  EXPECT_EQ(cat::rounds_total(reg, "trp", "mismatch").value(), 1u);
  EXPECT_EQ(cat::mismatched_slots_total(reg, "trp").value(), 1u);
  EXPECT_EQ(cat::slots_total(reg, "trp").value(),
            2u * static_cast<std::uint64_t>(server.frame_size()));

  // Detach: no further movement.
  server.set_metrics(nullptr);
  (void)server.verify(challenge, intact_report);
  EXPECT_EQ(cat::rounds_total(reg, "trp", "intact").value(), 1u);
}

TEST(ObsProtocol, UtrpRoundOutcomesAndMirrorReseeds) {
  util::Rng rng(8);
  const tag::TagSet set = tag::TagSet::make_random(60, rng);
  protocol::UtrpServer server(set, {.tolerated_missing = 1, .confidence = 0.9},
                              20);
  obs::MetricsRegistry reg;
  server.set_metrics(&reg);

  const auto challenge = server.issue_challenge(rng);
  const auto report = server.expected_bitstring(challenge);
  const auto verdict =
      server.commit_round(challenge, report, /*deadline_met=*/true);
  EXPECT_TRUE(verdict.intact);

  EXPECT_EQ(cat::challenges_total(reg, "utrp").value(), 1u);
  EXPECT_EQ(cat::rounds_total(reg, "utrp", "intact").value(), 1u);
  EXPECT_EQ(cat::slots_total(reg, "utrp").value(), server.frame_size());
  // 60 replying tags in one frame force at least one re-seed on the
  // mirror's walk.
  EXPECT_GE(cat::reseeds_total(reg, "mirror").value(), 1u);

  // A late report counts as deadline_missed even when the bits match.
  const auto challenge2 = server.issue_challenge(rng);
  const auto report2 = server.expected_bitstring(challenge2);
  EXPECT_FALSE(server.verify(challenge2, report2, /*deadline_met=*/false).intact);
  EXPECT_EQ(cat::rounds_total(reg, "utrp", "deadline_missed").value(), 1u);
  EXPECT_EQ(cat::rounds_total(reg, "utrp", "mismatch").value(), 0u);
}

TEST(ObsProtocol, UtrpRoundStepCountsOneWalk) {
  // The round step walks the mirror once: an intact round adds that walk's
  // receptions to utrp_seed and its re-seeds to the mirror side, once each.
  util::Rng rng(11);
  const tag::TagSet set = tag::TagSet::make_random(60, rng);
  protocol::UtrpServer server(set, {.tolerated_missing = 1, .confidence = 0.9},
                              20);
  obs::MetricsRegistry reg;
  server.set_metrics(&reg);

  const auto challenge = server.issue_challenge(rng);
  const auto report = server.expected_bitstring(challenge);
  tag::ColumnarTagSet copy = server.mirror();
  const protocol::UtrpScanResult walk =
      protocol::utrp_scan_columnar(copy, hash::SlotHasher{}, challenge);
  obs::Counter& slots = cat::bulk_slots_total(reg, "utrp_seed");
  const std::uint64_t slots_before = slots.value();

  ASSERT_TRUE(server.commit_round(challenge, report).intact);
  EXPECT_EQ(slots.value() - slots_before, walk.slots_hashed);
  EXPECT_EQ(cat::reseeds_total(reg, "mirror").value(), walk.reseeds);
  EXPECT_GE(walk.reseeds, 1u);
}

TEST(ObsProtocol, MultiRoundCampaignCounters) {
  util::Rng rng(9);
  const tag::TagSet set = tag::TagSet::make_random(80, rng);
  protocol::MultiRoundTrpServer server(
      set.ids(), {.tolerated_missing = 1, .confidence = 0.95}, 3);
  obs::MetricsRegistry reg;
  server.set_metrics(&reg);

  const auto challenges = server.issue_challenges(rng);
  ASSERT_EQ(challenges.size(), 3u);
  protocol::TrpServer reference(set.ids(),
                                {.tolerated_missing = 1,
                                 .confidence = server.plan().per_round_alpha});
  std::vector<bits::Bitstring> reports;
  for (const auto& c : challenges) {
    reports.push_back(reference.expected_bitstring(c));
  }
  EXPECT_TRUE(server.verify(challenges, reports).intact);
  EXPECT_EQ(cat::multi_round_campaigns_total(reg, "intact").value(), 1u);
  // The inner TRP server counted every round.
  EXPECT_EQ(cat::challenges_total(reg, "trp").value(), 3u);
  EXPECT_EQ(cat::rounds_total(reg, "trp", "intact").value(), 3u);
}

// --------------------------------------------------- inventory server ----

TEST(ObsServer, VerdictAlertAndResyncCounters) {
  util::Rng rng(10);
  server::InventoryServer inv;
  obs::MetricsRegistry reg;
  inv.attach_metrics(&reg);

  const tag::TagSet trp_tags = tag::TagSet::make_random(50, rng);
  tag::TagSet utrp_tags = tag::TagSet::make_random(50, rng);
  server::GroupConfig trp_cfg;
  trp_cfg.name = "shelf";
  trp_cfg.policy = {.tolerated_missing = 1, .confidence = 0.9};
  server::GroupConfig utrp_cfg = trp_cfg;
  utrp_cfg.name = "pallet";
  utrp_cfg.protocol = server::ProtocolKind::kUtrp;
  const auto trp_id = inv.enroll(trp_tags, trp_cfg);
  const auto utrp_id = inv.enroll(utrp_tags, utrp_cfg);
  EXPECT_EQ(cat::groups_enrolled_total(reg, "trp").value(), 1u);
  EXPECT_EQ(cat::groups_enrolled_total(reg, "utrp").value(), 1u);

  // Intact TRP round.
  const auto trp_challenge = inv.challenge_trp(trp_id, rng);
  const protocol::TrpServer oracle(trp_tags.ids(), trp_cfg.policy);
  (void)inv.submit_trp(trp_id, trp_challenge,
                       oracle.expected_bitstring(trp_challenge));
  EXPECT_EQ(cat::verdicts_total(reg, "trp", "intact").value(), 1u);
  EXPECT_EQ(cat::alerts_total(reg, "round_failure").value(), 0u);

  // Violated UTRP round (tampered bitstring), then the healing resync.
  const auto utrp_challenge = inv.challenge_utrp(utrp_id, rng);
  bits::Bitstring tampered(utrp_challenge.frame_size);
  (void)inv.submit_utrp(utrp_id, utrp_challenge, tampered,
                        /*deadline_met=*/true);
  EXPECT_EQ(cat::verdicts_total(reg, "utrp", "violated").value(), 1u);
  EXPECT_EQ(cat::alerts_total(reg, "round_failure").value(), 1u);
  EXPECT_TRUE(inv.needs_resync(utrp_id));
  inv.resync(utrp_id, utrp_tags);
  EXPECT_EQ(cat::resyncs_total(reg).value(), 1u);
  EXPECT_EQ(cat::alerts_total(reg, "resync").value(), 1u);
}

TEST(ObsProtocol, BulkKernelSlotCounterCountsEveryExpectedBitstring) {
  util::Rng rng(11);
  const tag::TagSet set = tag::TagSet::make_random(100, rng);
  protocol::TrpServer server(set.ids(),
                             {.tolerated_missing = 2, .confidence = 0.9});
  obs::MetricsRegistry reg;
  server.set_metrics(&reg);

  const auto challenge = server.issue_challenge(rng);
  (void)server.expected_bitstring(challenge);
  EXPECT_EQ(cat::bulk_slots_total(reg, "trp_frame").value(), 100u);
  (void)server.expected_bitstring(challenge);
  EXPECT_EQ(cat::bulk_slots_total(reg, "trp_frame").value(), 200u);
}

TEST(ObsServer, ExpectedCacheHitMissAndInvalidationDeltas) {
  util::Rng rng(12);
  server::InventoryServer inv;
  obs::MetricsRegistry reg;
  inv.attach_metrics(&reg);

  const tag::TagSet tags = tag::TagSet::make_random(60, rng);
  server::GroupConfig cfg;
  cfg.name = "cached";
  cfg.policy = {.tolerated_missing = 1, .confidence = 0.9};
  const auto id = inv.enroll(tags, cfg);

  const protocol::TrpReader reader;
  const auto c1 = inv.challenge_trp(id, rng);
  (void)inv.submit_trp(id, c1, reader.scan(tags.tags(), c1, rng));
  EXPECT_EQ(cat::expected_cache_total(reg, "miss").value(), 1u);
  EXPECT_EQ(cat::expected_cache_total(reg, "hit").value(), 0u);

  // Replay twice: two hits, no further misses.
  (void)inv.submit_trp(id, c1, reader.scan(tags.tags(), c1, rng));
  (void)inv.submit_trp(id, c1, reader.scan(tags.tags(), c1, rng));
  EXPECT_EQ(cat::expected_cache_total(reg, "miss").value(), 1u);
  EXPECT_EQ(cat::expected_cache_total(reg, "hit").value(), 2u);

  // A second distinct challenge misses once; re-enrollment then drops both
  // entries — the invalidation counter records exactly the entries dropped.
  const auto c2 = inv.challenge_trp(id, rng);
  (void)inv.submit_trp(id, c2, reader.scan(tags.tags(), c2, rng));
  EXPECT_EQ(cat::expected_cache_total(reg, "miss").value(), 2u);
  EXPECT_EQ(cat::expected_cache_invalidations_total(reg).value(), 0u);
  inv.re_enroll(id, tags, cfg);
  EXPECT_EQ(cat::expected_cache_invalidations_total(reg).value(), 2u);

  // Cold after invalidation: the replayed challenge misses again.
  (void)inv.submit_trp(id, c1, reader.scan(tags.tags(), c1, rng));
  EXPECT_EQ(cat::expected_cache_total(reg, "miss").value(), 3u);
  EXPECT_EQ(cat::expected_cache_total(reg, "hit").value(), 2u);
}

// --------------------------------------------------------- wire session --

TEST(ObsWire, SessionMetricsTracesAndLogAgreeWithOutcome) {
  sim::EventQueue queue;
  util::Rng rng(31);
  const tag::TagSet set = tag::TagSet::make_random(120, rng);
  protocol::TrpServer server(set.ids(),
                             {.tolerated_missing = 3, .confidence = 0.95});
  obs::MetricsRegistry reg;
  obs::Tracer tracer([&queue] { return queue.now(); });
  obs::SessionLog log;
  server.set_metrics(&reg);

  wire::SessionConfig config;
  config.metrics = &reg;
  config.tracer = &tracer;
  config.session_log = &log;
  constexpr std::uint64_t kRounds = 4;
  const auto outcome =
      wire::run_trp_session(queue, server, set.tags(), kRounds, config, rng);
  ASSERT_TRUE(outcome.completed);

  // Counters agree with the outcome the session itself reported.
  EXPECT_EQ(cat::sessions_total(reg, "trp", "completed").value(), 1u);
  EXPECT_EQ(cat::frames_sent_total(reg, "uplink").value() +
                cat::frames_sent_total(reg, "downlink").value(),
            outcome.frames_sent);
  EXPECT_EQ(cat::frames_dropped_total(reg, "uplink").value() +
                cat::frames_dropped_total(reg, "downlink").value(),
            outcome.frames_dropped);
  EXPECT_EQ(cat::retransmissions_total(reg).value(), outcome.retransmissions);
  EXPECT_GT(cat::bytes_sent_total(reg, "uplink").value(), 0u);
  // Every round's scan observed the whole frame.
  EXPECT_EQ(cat::scan_slots_total(reg, "trp", "empty").value() +
                cat::scan_slots_total(reg, "trp", "reply").value(),
            kRounds * static_cast<std::uint64_t>(server.frame_size()));
  // The protocol engine saw one challenge + verify per round.
  EXPECT_EQ(cat::challenges_total(reg, "trp").value(), kRounds);
  EXPECT_EQ(cat::rounds_total(reg, "trp", "intact").value(), kRounds);
  const obs::Histogram& duration = cat::session_duration_us(reg, "trp");
  EXPECT_EQ(duration.count(), 1u);
  EXPECT_DOUBLE_EQ(duration.sum(), outcome.finished_at_us);

  // Trace: one session span, one round + one scan span per round, all ended,
  // correctly parented.
  std::size_t sessions = 0, round_spans = 0, scan_spans = 0;
  for (const obs::Span& span : tracer.spans()) {
    EXPECT_TRUE(span.ended) << span.name;
    if (span.name == "session") {
      ++sessions;
      EXPECT_EQ(span.parent, obs::Tracer::kNoSpan);
    } else if (span.name == "round") {
      ++round_spans;
      EXPECT_EQ(span.parent, tracer.spans()[0].id);
    } else if (span.name == "scan") {
      ++scan_spans;
    }
  }
  EXPECT_EQ(sessions, 1u);
  EXPECT_EQ(round_spans, kRounds);
  EXPECT_EQ(scan_spans, kRounds);

  // Session log entry mirrors the outcome.
  const auto recent = log.recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].protocol, "trp");
  EXPECT_EQ(recent[0].outcome, "completed");
  EXPECT_EQ(recent[0].rounds_completed, kRounds);
  EXPECT_EQ(recent[0].frames_sent, outcome.frames_sent);
  EXPECT_DOUBLE_EQ(recent[0].duration_us, outcome.finished_at_us);
}

// -------------------------------------------------------------- storage --

TEST(ObsStorage, JournalRotationAndRecoveryCounters) {
  storage::MemoryBackend backend;
  util::Rng rng(40);
  const tag::TagSet set = tag::TagSet::make_random(40, rng);
  server::GroupConfig cfg;
  cfg.name = "durable";
  cfg.policy = {.tolerated_missing = 1, .confidence = 0.9};

  std::uint64_t appended_bytes = 0;
  {
    obs::MetricsRegistry reg;
    double now = 0.0;
    storage::DurabilityConfig dcfg;
    dcfg.metrics = &reg;
    dcfg.clock = [&now] { return now += 5.0; };
    storage::DurableInventoryServer durable(backend, dcfg);
    // Fresh store: one clean recovery, nothing replayed.
    EXPECT_EQ(cat::recoveries_total(reg, "true").value(), 1u);
    EXPECT_EQ(cat::recovery_records_replayed_total(reg).value(), 0u);
    EXPECT_EQ(cat::recovery_duration_us(reg).count(), 1u);
    EXPECT_DOUBLE_EQ(cat::recovery_duration_us(reg).sum(), 5.0);

    const auto id = durable.enroll(set, cfg);
    const auto challenge = durable.challenge_trp(id, rng);
    const protocol::TrpServer oracle(set.ids(), cfg.policy);
    (void)durable.submit_trp(id, challenge,
                             oracle.expected_bitstring(challenge));
    EXPECT_EQ(cat::journal_appends_total(reg).value(), 2u);
    appended_bytes = cat::journal_bytes_total(reg).value();
    EXPECT_GT(appended_bytes, 0u);
    EXPECT_EQ(cat::snapshot_rotations_total(reg).value(), 0u);
    durable.rotate();
    EXPECT_EQ(cat::snapshot_rotations_total(reg).value(), 1u);
    // The post-recovery attachment also instruments the wrapped server.
    EXPECT_EQ(cat::verdicts_total(reg, "trp", "intact").value(), 1u);
  }

  // Reopen: the snapshot carries the state, so the journal chain is empty —
  // a clean recovery with zero replayed records on a fresh registry.
  {
    obs::MetricsRegistry reg;
    double now = 100.0;
    storage::DurabilityConfig dcfg;
    dcfg.metrics = &reg;
    dcfg.clock = [&now] { return now += 7.0; };
    storage::DurableInventoryServer durable(backend, dcfg);
    EXPECT_TRUE(durable.recovery_report().clean());
    EXPECT_EQ(cat::recoveries_total(reg, "true").value(), 1u);
    EXPECT_DOUBLE_EQ(cat::recovery_duration_us(reg).sum(), 7.0);
    EXPECT_EQ(durable.server().group_count(), 1u);
    // Replay did NOT inflate live server counters: the verdict series was
    // attached after recovery.
    EXPECT_EQ(cat::verdicts_total(reg, "trp", "intact").value(), 0u);
    EXPECT_EQ(cat::recovery_records_replayed_total(reg).value(), 0u);
  }
}

// --------------------------------------------------------------- fusion --

// A fused fleet's fusion_* counters must equal the sums of the per-zone
// report fields exactly — the metrics are re-recorded post-run from the
// same reports, so any drift is a bookkeeping bug, not noise.
TEST(ObsFusion, FusedFleetLandsExactCounterDeltasAndReaderJson) {
  obs::MetricsRegistry reg;
  obs::SessionLog log(64);
  fleet::FleetOrchestrator orchestrator({.seed = 515,
                                         .threads = 2,
                                         .fleet_name = "fused-obs",
                                         .metrics = &reg,
                                         .session_log = &log});
  util::Rng rng(616);
  fleet::InventorySpec spec;
  spec.name = "inv";
  spec.tags = tag::TagSet::make_random(80, rng);
  spec.plan = server::plan_groups({.total_tags = 80,
                                   .total_tolerance = 2,
                                   .alpha = 0.95,
                                   .max_group_size = 40});
  spec.rounds = 2;
  spec.fusion.readers = 3;
  for (std::uint64_t t = 0; t < 8; ++t) spec.stolen.push_back(t);
  spec.dishonest_readers.emplace_back(0, 1);  // forger inside the theft zone
  orchestrator.submit(std::move(spec));
  const fleet::FleetResult result = orchestrator.run();

  std::uint64_t fused_slots = 0;
  std::uint64_t phantom = 0;
  std::uint64_t missed = 0;
  std::uint64_t degraded = 0;
  for (const fleet::ZoneReport& zone : result.inventories.at(0).zones) {
    fused_slots += zone.fused_slots;
    phantom += zone.phantom_votes;
    missed += zone.missed_votes;
    degraded += zone.degraded_rounds;
  }
  ASSERT_GT(fused_slots, 0u);
  ASSERT_GT(phantom, 0u);  // the forger's physically impossible votes
  EXPECT_EQ(cat::fusion_slots_fused_total(reg).value(), fused_slots);
  EXPECT_EQ(cat::fusion_votes_overruled_total(reg, "phantom_busy").value(),
            phantom);
  EXPECT_EQ(cat::fusion_votes_overruled_total(reg, "missed_busy").value(),
            missed);
  EXPECT_EQ(cat::fusion_rounds_degraded_total(reg).value(), degraded);
  EXPECT_EQ(cat::fusion_readers_suspected_total(reg).value(),
            result.readers_suspected);
  EXPECT_EQ(result.readers_suspected, 1u);

  // Per-reader session entries: every (zone, reader, attempt) is logged,
  // and the JSON carries reader/readers fields for fused sessions only.
  const std::string json = obs::render_json(reg.snapshot(), &log);
  EXPECT_NE(json.find("\"reader\":0"), std::string::npos);
  EXPECT_NE(json.find("\"reader\":2"), std::string::npos);
  EXPECT_NE(json.find("\"readers\":3"), std::string::npos);
}

// The reader field is a fused-only concept: single-reader sessions must
// render byte-identically to the pre-fusion format (no reader/readers
// keys), so dashboards built on the k = 1 schema never see a new field.
TEST(ObsFusion, SingleReaderSessionsCarryNoReaderJsonField) {
  obs::MetricsRegistry reg;
  obs::SessionLog log(64);
  fleet::FleetOrchestrator orchestrator({.seed = 515,
                                         .threads = 1,
                                         .fleet_name = "plain-obs",
                                         .metrics = &reg,
                                         .session_log = &log});
  util::Rng rng(616);
  fleet::InventorySpec spec;
  spec.name = "inv";
  spec.tags = tag::TagSet::make_random(40, rng);
  spec.plan = server::plan_groups({.total_tags = 40,
                                   .total_tolerance = 1,
                                   .alpha = 0.95,
                                   .max_group_size = 0});
  spec.rounds = 1;
  orchestrator.submit(std::move(spec));
  (void)orchestrator.run();

  const std::string json = obs::render_json(reg.snapshot(), &log);
  EXPECT_EQ(json.find("\"reader\":"), std::string::npos);
  EXPECT_EQ(json.find("\"readers\":"), std::string::npos);
  // And none of the fusion counters were ever registered.
  const std::string prometheus = obs::render_prometheus(reg.snapshot());
  EXPECT_EQ(prometheus.find("rfidmon_fusion_"), std::string::npos);
}

// ------------------------------------------------- monitoring service ----

// A scripted loopback conversation with known frame and admission counts:
// every service_* series must land on its exact expected delta. The IO
// thread has necessarily processed each request frame before its response
// reached the client, so reading the (atomic) counters between steps is
// race-free.
TEST(ObsService, ScriptedSessionLandsExactServiceDeltas) {
  obs::MetricsRegistry reg;
  service::ServiceConfig config;
  config.metrics = &reg;
  service::MonitorService svc{config};
  svc.start();

  service::ServiceClient client(svc.port());
  client.hello("acme");
  service::EnrollRequest inv;
  inv.inventory = "inv";
  inv.tolerance = 2;
  inv.zone_capacity = 30;
  inv.rounds = 2;
  for (std::uint32_t i = 0; i < 60; ++i) inv.tags.emplace_back(i, 0x900 + i);
  client.enroll(inv);

  service::StartRunRequest run;
  run.inventory = "inv";
  run.seed = 7;
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);
  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  (void)client.subscribe();

  // hello + enroll + start_run + subscribe parsed; HelloOk + EnrollOk +
  // RunAdmitted + RunVerdict + SubscribeOk queued (intact -> no alerts).
  EXPECT_EQ(cat::service_frames_total(reg, "in").value(), 4u);
  EXPECT_EQ(cat::service_frames_total(reg, "out").value(), 5u);
  EXPECT_EQ(cat::service_admissions_total(reg, "accepted").value(), 1u);
  EXPECT_EQ(cat::service_admissions_total(reg, "deferred").value(), 0u);
  EXPECT_EQ(cat::service_admissions_total(reg, "rejected").value(), 0u);
  EXPECT_EQ(cat::service_runs_total(reg, "intact").value(), 1u);
  EXPECT_EQ(cat::service_runs_total(reg, "aborted").value(), 0u);
  EXPECT_EQ(cat::service_run_latency_us(reg).count(), 1u);
  EXPECT_EQ(cat::service_active_connections(reg).value(), 1.0);
  EXPECT_EQ(cat::service_active_streams(reg).value(), 1.0);

  // One hostile peer: a flipped checksum costs exactly one typed error
  // (sent as a frame, so frames_out moves too) and never parses as input.
  {
    service::ServiceClient hostile(svc.port(),
                                   std::chrono::milliseconds(2000));
    std::vector<std::byte> bent = service::encode_frame(
        service::FrameType::kPing, service::encode(service::PingMsg{1}));
    bent.back() ^= std::byte{0xff};
    hostile.send_raw(bent);
    try {
      for (;;) (void)hostile.read_frame();
    } catch (const std::runtime_error&) {
      // server closed the connection after the typed error
    }
  }
  EXPECT_EQ(cat::service_frame_errors_total(reg, "bad_checksum").value(), 1u);
  EXPECT_EQ(cat::service_frames_total(reg, "in").value(), 4u);
  EXPECT_EQ(cat::service_frames_total(reg, "out").value(), 6u);
  EXPECT_EQ(cat::service_connections_total(reg, "client").value(), 2u);

  // Scrapes count themselves (before rendering, so each sees its own hit).
  (void)service::http_get(svc.http_port(), "/metrics");
  const std::string health = service::http_get(svc.http_port(), "/healthz");
  EXPECT_EQ(health, "ok\n");
  EXPECT_EQ(cat::service_http_requests_total(reg, "metrics").value(), 1u);
  EXPECT_EQ(cat::service_http_requests_total(reg, "healthz").value(), 1u);
  EXPECT_EQ(cat::service_http_requests_total(reg, "metrics_json").value(),
            0u);
  EXPECT_EQ(cat::service_connections_total(reg, "http").value(), 2u);

  svc.stop();
}

}  // namespace
