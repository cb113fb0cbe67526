// MonitorService end-to-end over loopback: hermetic two-endpoint tests with
// ephemeral ports and full start/stop lifecycle. Every test spins a private
// service, talks to it through ServiceClient, and asserts on the typed
// conversation — no fixed ports, no leftover state, no sleeps for
// correctness (only bounded receive timeouts).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "fleet/fleet.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/service.h"
#include "service/socket.h"
#include "storage/backend.h"
#include "storage/daemon_journal.h"
#include "tag/tag_id.h"

namespace {

using namespace rfid;
using service::EnrollRequest;
using service::MonitorService;
using service::ServiceClient;
using service::ServiceConfig;
using service::StartRunRequest;
using service::StartWatchRequest;

std::vector<tag::TagId> make_ids(std::uint64_t count) {
  std::vector<tag::TagId> ids;
  ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.emplace_back(static_cast<std::uint32_t>(i), 0x1000 + i);
  }
  return ids;
}

EnrollRequest small_inventory(const std::string& name,
                              std::uint64_t tags = 60) {
  EnrollRequest req;
  req.inventory = name;
  req.tolerance = 2;
  req.alpha = 0.95;
  req.zone_capacity = 30;
  req.rounds = 2;
  req.tags = make_ids(tags);
  return req;
}

TEST(ServiceLifecycle, StartExposesPortsAndStopIsIdempotent) {
  MonitorService svc{ServiceConfig{}};
  EXPECT_FALSE(svc.running());
  svc.start();
  EXPECT_TRUE(svc.running());
  EXPECT_NE(svc.port(), 0);
  EXPECT_NE(svc.http_port(), 0);
  EXPECT_NE(svc.port(), svc.http_port());
  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(svc.running());
  EXPECT_TRUE(stats.drained_cleanly);
  const service::ServiceStats again = svc.stop();  // idempotent
  EXPECT_EQ(again.connections, stats.connections);
}

TEST(ServiceLifecycle, StopAfterAFailedStartIsSafe) {
  const service::Listener taken(0);
  ServiceConfig config;
  config.port = taken.port();  // already bound: start() cannot listen
  MonitorService svc{config};
  EXPECT_THROW(svc.start(), std::system_error);
  EXPECT_TRUE(svc.stop().drained_cleanly);
}

TEST(ServiceLifecycle, StopReturnsConnectionGaugesToZero) {
  obs::MetricsRegistry registry;  // outlives the service
  ServiceConfig config;
  config.metrics = &registry;
  MonitorService svc{config};
  svc.start();
  const obs::Gauge& connections =
      obs::catalog::service_active_connections(registry);
  const obs::Gauge& streams = obs::catalog::service_active_streams(registry);

  ServiceClient client(svc.port());
  client.hello("acme");
  EXPECT_TRUE(client.subscribe().empty());  // a round trip: it is counted
  EXPECT_EQ(connections.value(), 1.0);
  EXPECT_EQ(streams.value(), 1.0);

  // The client is still connected when the service stops.
  (void)svc.stop();
  EXPECT_EQ(connections.value(), 0.0);
  EXPECT_EQ(streams.value(), 0.0);
}

TEST(ServiceSession, HelloEnrollRunIntact) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());

  const service::HelloOk hello = client.hello("acme");
  EXPECT_EQ(hello.version, service::kProtocolVersion);
  EXPECT_NE(hello.session_id, 0u);

  const service::EnrollOk enrolled = client.enroll(small_inventory("aisle1"));
  EXPECT_EQ(enrolled.tags, 60u);
  EXPECT_GE(enrolled.zones, 2u);
  EXPECT_GT(enrolled.total_slots, 0u);

  StartRunRequest run;
  run.inventory = "aisle1";
  run.seed = 7;
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  EXPECT_EQ(outcome.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kAccepted));

  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);
  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  EXPECT_EQ(result.verdict.zones_violated, 0u);
  EXPECT_FALSE(result.verdict.aborted);
  EXPECT_TRUE(result.verdict.missing.empty());

  EXPECT_EQ(client.ping(42), 42u);
  client.goodbye();
  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.runs_completed, 1u);
  EXPECT_TRUE(stats.drained_cleanly);
}

TEST(ServiceSession, SecondHelloIsRejectedAndSessionSurvives) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  const service::HelloOk first = client.hello("acme");

  // A second Hello must not mint a new session — it would leave the first
  // sessions entry dangling behind a reused connection. The service answers
  // bad_request and the original session keeps working.
  client.send_frame(
      service::FrameType::kHello,
      encode(service::HelloRequest{service::kProtocolVersion, "acme"}));
  const service::Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kBadRequest);

  client.enroll(small_inventory("aisle1"));
  StartRunRequest run;
  run.inventory = "aisle1";
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);
  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  EXPECT_EQ(client.ping(9), 9u);
  EXPECT_NE(first.session_id, 0u);
  svc.stop();
}

TEST(ServiceSession, ConnectionLimitRefusesAndGaugeReturnsToZero) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.max_connections = 1;
  config.metrics = &registry;
  MonitorService svc{config};
  svc.start();
  const obs::Gauge& active =
      obs::catalog::service_active_connections(registry);

  ServiceClient first(svc.port());
  first.hello("acme");  // a round trip: the service has accepted it
  EXPECT_EQ(active.value(), 1.0);

  // Over the limit: a typed refusal, then the service closes the socket.
  ServiceClient second(svc.port());
  const service::Frame frame = second.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  const service::ErrorMsg refusal = service::decode_error(frame.payload);
  EXPECT_EQ(refusal.code, service::ErrorCode::kOverloaded);
  EXPECT_EQ(refusal.message, "connection limit");
  EXPECT_THROW((void)second.read_frame(), std::runtime_error);
  // The refusal was never counted in, so it is not counted out either.
  EXPECT_EQ(active.value(), 1.0);
  EXPECT_EQ(first.ping(3), 3u);

  // The service closes the socket only after reaping the connection, so
  // the close the client observes comes after the gauge's decrement.
  first.goodbye();
  EXPECT_THROW((void)first.read_frame(), std::runtime_error);
  EXPECT_EQ(active.value(), 0.0);
  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(active.value(), 0.0);
}

TEST(ServiceSession, TheftVerdictNamesStolenTags) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  const EnrollRequest inventory = small_inventory("cage", 60);
  client.enroll(inventory);

  StartRunRequest run;
  run.inventory = "cage";
  run.seed = 11;
  run.identify = true;
  run.stolen = {3, 7, 33, 41};
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);

  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kViolated));
  EXPECT_GT(result.verdict.zones_violated, 0u);
  EXPECT_GT(result.verdict.tags_named, 0u);
  // The drill-down names the actual stolen tags, by identity.
  for (const std::uint64_t idx : run.stolen) {
    const tag::TagId expected = inventory.tags[idx];
    const bool named =
        std::any_of(result.verdict.missing.begin(),
                    result.verdict.missing.end(),
                    [&](const tag::TagId& id) { return id == expected; });
    EXPECT_TRUE(named) << "stolen tag at index " << idx << " not named";
  }
  // Soundness the other way: nothing present is accused.
  for (const tag::TagId& named : result.verdict.missing) {
    const bool stolen = std::any_of(
        run.stolen.begin(), run.stolen.end(),
        [&](std::uint64_t idx) { return inventory.tags[idx] == named; });
    EXPECT_TRUE(stolen) << "present tag accused: " << named.to_string();
  }
  svc.stop();
}

TEST(ServiceSession, ReEnrollLeavesAnAdmittedRunOnItsPopulation) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  const EnrollRequest before = small_inventory("cage", 60);
  client.enroll(before);

  StartRunRequest run;
  run.inventory = "cage";
  run.seed = 11;
  run.identify = true;
  run.stolen = {3, 7, 33, 41};
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  ASSERT_EQ(outcome.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kAccepted));

  // Same inventory name, a different population, while the run is in
  // flight: the run must still be judged against what it was admitted with.
  EnrollRequest after = small_inventory("cage", 90);
  for (std::size_t i = 0; i < after.tags.size(); ++i) {
    after.tags[i] = tag::TagId(static_cast<std::uint32_t>(i), 0x9000 + i);
  }
  EXPECT_EQ(client.enroll(after).tags, 90u);

  const service::RunOutcome result =
      client.await_verdict(outcome.admitted->run_id);
  EXPECT_EQ(result.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kViolated));
  std::vector<tag::TagId> expected;
  for (const std::uint64_t idx : run.stolen) {
    expected.push_back(before.tags[idx]);
  }
  std::vector<tag::TagId> named = result.verdict.missing;
  std::sort(expected.begin(), expected.end());
  std::sort(named.begin(), named.end());
  EXPECT_EQ(named, expected);

  // A run admitted after the re-Enroll sees the new population (index 80
  // exists only there).
  StartRunRequest later = run;
  later.stolen = {5, 80};
  const service::StartOutcome second = client.start_run(later);
  ASSERT_TRUE(second.admitted.has_value());
  const service::RunOutcome fresh =
      client.await_verdict(second.admitted->run_id);
  EXPECT_EQ(fresh.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kViolated));
  named = fresh.verdict.missing;
  std::sort(named.begin(), named.end());
  EXPECT_EQ(named, (std::vector<tag::TagId>{after.tags[5], after.tags[80]}));
  svc.stop();
}

TEST(ServiceSession, RequestLevelErrorsKeepConnectionAlive) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());

  // Request before hello: typed error, connection survives.
  client.send_frame(service::FrameType::kStartRun,
                    encode(StartRunRequest{"x", 1, false, {}}));
  service::Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kHelloRequired);

  client.hello("acme");

  // Unknown inventory.
  client.send_frame(service::FrameType::kStartRun,
                    encode(StartRunRequest{"ghost", 1, false, {}}));
  frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kUnknownInventory);

  // Unplannable enrollment (tolerance >= tags) maps the planner's
  // invalid_argument to a bad_request, not a dropped connection.
  EnrollRequest bad;
  bad.inventory = "bad";
  bad.tolerance = 100;
  bad.tags = make_ids(10);
  client.send_frame(service::FrameType::kEnroll, encode(bad));
  frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kBadRequest);

  // Client-sent u64s at the top of their range: a zone capacity the
  // planner once wrapped into a division by zero, a tolerance it once
  // wrapped into a ~2^64-step loop on the IO thread, and more rounds per
  // session than a drain could ever wait out.
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  EnrollRequest hostile = bad;
  hostile.tolerance = 10;
  hostile.zone_capacity = kTop;
  EnrollRequest wrapping = small_inventory("wrapping");
  wrapping.tolerance = kTop;
  EnrollRequest endless = small_inventory("endless");
  endless.rounds = 65;
  // A plan of more slots per run than one frame may hold (2^24): 100 tags
  // at m = 0 and alpha = 0.99999 plan about 9.9 million slots a round, so
  // two rounds are refused.
  EnrollRequest greedy;
  greedy.inventory = "greedy";
  greedy.tolerance = 0;
  greedy.alpha = 0.99999;
  greedy.rounds = 2;
  greedy.tags = make_ids(100);
  for (const EnrollRequest& req : {hostile, wrapping, endless, greedy}) {
    SCOPED_TRACE(req.inventory + " tolerance " +
                 std::to_string(req.tolerance) + " rounds " +
                 std::to_string(req.rounds));
    client.send_frame(service::FrameType::kEnroll, encode(req));
    frame = client.read_frame();
    ASSERT_EQ(static_cast<service::FrameType>(frame.type),
              service::FrameType::kError);
    EXPECT_EQ(service::decode_error(frame.payload).code,
              service::ErrorCode::kBadRequest);
  }
  // The same inventory at one round fits under the bound and enrolls.
  greedy.rounds = 1;
  const std::uint64_t greedy_slots = client.enroll(greedy).total_slots;
  EXPECT_LE(greedy_slots, std::uint64_t{1} << 24);
  EXPECT_GT(2 * greedy_slots, std::uint64_t{1} << 24);

  // Stolen index out of range.
  client.enroll(small_inventory("aisle1"));
  StartRunRequest run;
  run.inventory = "aisle1";
  run.stolen = {999};
  client.send_frame(service::FrameType::kStartRun, encode(run));
  frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kBadRequest);

  // The connection still works after all eight errors.
  EXPECT_EQ(client.ping(5), 5u);
  svc.stop();
}

TEST(ServiceAdmission, TokenBucketSendsRetryAfter) {
  std::atomic<std::uint64_t> clock{0};
  ServiceConfig config;
  config.tokens_per_sec = 0.5;
  config.token_capacity = 1.0;
  config.clock_us = [&clock] { return clock.load(); };
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  client.enroll(small_inventory("inv"));

  StartRunRequest run;
  run.inventory = "inv";
  const service::StartOutcome first = client.start_run(run);
  ASSERT_TRUE(first.admitted.has_value());

  // Bucket empty, refill 0.5 tokens/s: the service must push back with an
  // explicit retry hint near the 2 s deficit, not queue the request.
  const service::StartOutcome second = client.start_run(run);
  ASSERT_TRUE(second.backpressure.has_value());
  EXPECT_GE(second.backpressure->retry_after_ms, 1900u);
  EXPECT_LE(second.backpressure->retry_after_ms, 2100u);

  clock.store(2'500'000);  // 2.5 s later the bucket holds >1 token again
  const service::StartOutcome third = client.start_run(run);
  ASSERT_TRUE(third.admitted.has_value());

  client.await_verdict(first.admitted->run_id);
  client.await_verdict(third.admitted->run_id);
  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(ServiceAdmission, SaturationDefersThenRejects) {
  ServiceConfig config;
  config.workers = 1;
  config.max_inflight = 1;
  config.max_inflight_per_tenant = 4;
  config.max_deferred = 1;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  // A watch of many epochs over many zones: reliably in flight long enough
  // for the two follow-up requests to hit a busy service.
  EnrollRequest inv = small_inventory("inv", 300);
  inv.zone_capacity = 30;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "inv";
  watch.epochs = 8;
  const service::StartOutcome first = client.start_watch(watch);
  ASSERT_TRUE(first.admitted.has_value());
  EXPECT_EQ(first.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kAccepted));

  StartRunRequest run;
  run.inventory = "inv";
  const service::StartOutcome second = client.start_run(run);
  ASSERT_TRUE(second.admitted.has_value());
  EXPECT_EQ(second.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kDeferred));
  EXPECT_EQ(second.admitted->queue_depth, 1u);

  // Wave queue full: explicit backpressure, nothing silently queued.
  const service::StartOutcome third = client.start_run(run);
  ASSERT_TRUE(third.backpressure.has_value());
  EXPECT_GT(third.backpressure->retry_after_ms, 0u);

  // The deferred run still completes once capacity frees up.
  const service::RunOutcome deferred =
      client.await_verdict(second.admitted->run_id);
  EXPECT_EQ(deferred.verdict.verdict,
            static_cast<std::uint8_t>(fleet::GlobalVerdict::kIntact));
  client.await_watch_done(first.admitted->run_id);

  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.runs_completed, 2u);
}

TEST(ServiceAdmission, DeferredRunIsRecheckedAgainstAShrunkenPopulation) {
  // Admission checks stolen indices against the population enrolled then,
  // but a deferred run takes the population enrolled when it launches. A
  // re-Enroll in between must fail the run as a bad request (no internal
  // error, no source path) and leave the in-flight counts balanced.
  obs::MetricsRegistry metrics;
  ServiceConfig config;
  config.workers = 1;
  config.max_inflight_per_tenant = 1;
  config.metrics = &metrics;
  MonitorService svc{config};
  svc.start();
  // The WatchDone frame comes only at the watch's end, which takes seconds
  // in a sanitizer build: wait longer than the default 5 s per frame.
  ServiceClient client(svc.port(), std::chrono::seconds(60));
  client.hello("tenant");
  // A long watch (16 epochs over 100 zones) holds the tenant's only slot
  // well past the re-Enroll below.
  EnrollRequest inv = small_inventory("inv", 2000);
  inv.zone_capacity = 20;
  client.enroll(inv);
  StartWatchRequest watch;
  watch.inventory = "inv";
  watch.epochs = 16;
  const service::StartOutcome first = client.start_watch(watch);
  ASSERT_TRUE(first.admitted.has_value());

  StartRunRequest run;
  run.inventory = "inv";
  run.stolen = {1500};
  const service::StartOutcome second = client.start_run(run);
  ASSERT_TRUE(second.admitted.has_value());
  EXPECT_EQ(second.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kDeferred));

  EXPECT_EQ(client.enroll(small_inventory("inv", 100)).tags, 100u);

  // The watch frees the slot; the deferred run launches and is refused.
  client.await_watch_done(first.admitted->run_id);
  const service::Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  const service::ErrorMsg error = service::decode_error(frame.payload);
  EXPECT_EQ(error.code, service::ErrorCode::kBadRequest);
  EXPECT_EQ(error.message, "stolen index out of range");

  // The slot is free again: the next run is admitted, not deferred.
  run.stolen = {50};
  const service::StartOutcome third = client.start_run(run);
  ASSERT_TRUE(third.admitted.has_value());
  EXPECT_EQ(third.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kAccepted));
  client.await_verdict(third.admitted->run_id);

  const service::ServiceStats stats = svc.stop();
  EXPECT_EQ(stats.runs_aborted, 1u);
  EXPECT_EQ(stats.runs_completed, 2u);
  EXPECT_EQ(obs::catalog::service_runs_total(metrics, "aborted").value(), 1u);
}

TEST(ServiceAdmission, WatchStealRangeMustFitTheEnrolledPopulation) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  client.enroll(small_inventory("floor", 60));

  const auto refused = [&client](std::uint64_t steal,
                                 std::uint64_t steal_from) {
    StartWatchRequest watch;
    watch.inventory = "floor";
    watch.steal = steal;
    watch.steal_from = steal_from;
    client.send_frame(service::FrameType::kStartWatch, encode(watch));
    const service::Frame frame = client.read_frame();
    return static_cast<service::FrameType>(frame.type) ==
               service::FrameType::kError &&
           service::decode_error(frame.payload).code ==
               service::ErrorCode::kBadRequest;
  };
  EXPECT_TRUE(refused(UINT64_MAX, 0));
  EXPECT_TRUE(refused(10, UINT64_MAX - 5));  // steal_from + steal wraps
  EXPECT_TRUE(refused(3, 58));

  // A range ending exactly at the population's end runs.
  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 2;
  watch.steal = 2;
  watch.steal_from = 58;
  const service::StartOutcome outcome = client.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());
  EXPECT_EQ(client.await_watch_done(outcome.admitted->run_id).epochs_completed,
            2u);
  svc.stop();
}

TEST(ServiceAdmission, ZeroEpochWatchIsABadRequest) {
  // A watch of no epochs is refused at admission: it takes no token and no
  // worker, and its error names no source path.
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  client.enroll(small_inventory("floor", 60));

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 0;
  client.send_frame(service::FrameType::kStartWatch, encode(watch));
  const service::Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  const service::ErrorMsg error = service::decode_error(frame.payload);
  EXPECT_EQ(error.code, service::ErrorCode::kBadRequest);
  EXPECT_EQ(error.message.find(".cpp"), std::string::npos) << error.message;

  // The connection survives, and a one-epoch watch runs.
  watch.epochs = 1;
  const service::StartOutcome outcome = client.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());
  EXPECT_EQ(client.await_watch_done(outcome.admitted->run_id).epochs_completed,
            1u);
  EXPECT_EQ(svc.stop().admitted, 1u);
}

TEST(ServiceAdmission, InventoryQuotaRefusesANewNameButNotAReEnroll) {
  ServiceConfig config;
  config.max_inventories_per_tenant = 2;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  client.enroll(small_inventory("a"));
  client.enroll(small_inventory("b"));

  // A third name is past the quota: a request-level error, and nothing is
  // enrolled under it.
  client.send_frame(service::FrameType::kEnroll, encode(small_inventory("c")));
  service::Frame frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kBadRequest);
  client.send_frame(service::FrameType::kStartRun,
                    encode(StartRunRequest{"c", 1, false, {}}));
  frame = client.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kError);
  EXPECT_EQ(service::decode_error(frame.payload).code,
            service::ErrorCode::kUnknownInventory);

  // The connection survives, and a name already held re-enrolls at the
  // quota.
  EXPECT_EQ(client.ping(3), 3u);
  EXPECT_EQ(client.enroll(small_inventory("b", 90)).tags, 90u);
  svc.stop();
}

TEST(ServiceAlerts, WatchPublishesFeedAndSubscriberReplaysBacklog) {
  MonitorService svc{ServiceConfig{}};
  svc.start();
  ServiceClient producer(svc.port());
  producer.hello("warehouse");
  EnrollRequest inv = small_inventory("floor", 120);
  inv.zone_capacity = 40;
  inv.tolerance = 4;
  producer.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 3;
  watch.identify = true;
  watch.steal_epoch = 1;
  watch.steal = 5;
  watch.steal_from = 10;
  const service::StartOutcome outcome = producer.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());
  const service::WatchDone done =
      producer.await_watch_done(outcome.admitted->run_id);
  EXPECT_EQ(done.epochs_completed, 3u);
  EXPECT_FALSE(done.gave_up);
  EXPECT_GT(done.alerts, 0u);

  // A second connection of the same tenant sees the full backlog, named
  // stolen tags included; a different tenant sees nothing.
  ServiceClient subscriber(svc.port());
  subscriber.hello("warehouse");
  const std::vector<service::TenantAlert> backlog = subscriber.subscribe();
  ASSERT_EQ(backlog.size(), done.alerts);
  bool named = false;
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    EXPECT_EQ(backlog[i].sequence, i);  // gapless, ordered
    EXPECT_FALSE(backlog[i].kind.empty());
    named = named || !backlog[i].missing.empty();
  }
  EXPECT_TRUE(named) << "no feed alert carried identified stolen tags";

  ServiceClient stranger(svc.port());
  stranger.hello("other-tenant");
  EXPECT_TRUE(stranger.subscribe().empty());
  svc.stop();
}

TEST(ServiceAlerts, LateSubscriberReplaysTheNewestRetainedAlerts) {
  ServiceConfig config;
  config.alert_backlog = 3;
  MonitorService svc{config};
  svc.start();

  // One subscriber stays connected throughout and sees every alert live.
  ServiceClient live(svc.port());
  live.hello("acme");
  EXPECT_TRUE(live.subscribe().empty());

  ServiceClient producer(svc.port());
  producer.hello("acme");
  const EnrollRequest inventory = small_inventory("cage", 60);
  producer.enroll(inventory);
  const std::vector<std::vector<std::uint64_t>> thefts = {
      {3, 7}, {33, 41, 50}, {1}, {12, 13, 40}, {5, 59}};
  for (std::size_t i = 0; i < thefts.size(); ++i) {
    StartRunRequest run;
    run.inventory = "cage";
    run.seed = 100 + i;
    run.identify = true;
    run.stolen = thefts[i];
    const service::StartOutcome outcome = producer.start_run(run);
    ASSERT_TRUE(outcome.admitted.has_value());
    ASSERT_EQ(producer.await_verdict(outcome.admitted->run_id).verdict.verdict,
              static_cast<std::uint8_t>(fleet::GlobalVerdict::kViolated));
  }

  // Every verdict is out, so every alert is published: the late subscriber
  // is told the backlog is full and gets its newest alert_backlog entries.
  ServiceClient late(svc.port());
  late.hello("acme");
  late.send_frame(service::FrameType::kSubscribe, {});
  service::Frame frame = late.read_frame();
  ASSERT_EQ(static_cast<service::FrameType>(frame.type),
            service::FrameType::kSubscribeOk);
  ASSERT_EQ(service::decode_subscribe_ok(frame.payload).backlog,
            config.alert_backlog);
  std::vector<service::TenantAlert> replay;
  for (std::uint64_t i = 0; i < config.alert_backlog; ++i) {
    frame = late.read_frame();
    ASSERT_EQ(static_cast<service::FrameType>(frame.type),
              service::FrameType::kTenantAlert);
    replay.push_back(service::decode_tenant_alert(frame.payload));
  }
  const std::uint64_t published = replay.back().sequence + 1;
  ASSERT_GT(published, config.alert_backlog);  // the backlog overflowed

  std::vector<service::TenantAlert> seen;
  while (seen.size() < published) {
    frame = live.read_frame();
    ASSERT_EQ(static_cast<service::FrameType>(frame.type),
              service::FrameType::kTenantAlert);
    seen.push_back(service::decode_tenant_alert(frame.payload));
    EXPECT_EQ(seen.back().sequence, seen.size() - 1);  // gapless, ordered
  }
  const std::size_t first = seen.size() - replay.size();
  bool named = false;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const service::TenantAlert& want = seen[first + i];
    EXPECT_EQ(replay[i].sequence, want.sequence);
    EXPECT_EQ(replay[i].kind, want.kind);
    EXPECT_EQ(replay[i].run_id, want.run_id);
    EXPECT_EQ(replay[i].epoch, want.epoch);
    EXPECT_EQ(replay[i].zone, want.zone);
    EXPECT_EQ(replay[i].detail, want.detail);
    EXPECT_EQ(replay[i].missing, want.missing);
    named = named || !replay[i].missing.empty();
  }
  EXPECT_TRUE(named) << "no replayed alert carried identified stolen tags";
  svc.stop();
}

TEST(ServiceDurability, JournalDirPersistsWatchJournalsAcrossRestart) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "rfidmon_service_journals";
  std::filesystem::remove_all(root);

  ServiceConfig config;
  config.journal_dir = root.string();
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("warehouse");
  EnrollRequest inv = small_inventory("floor", 120);
  inv.zone_capacity = 40;
  inv.tolerance = 4;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 3;
  watch.steal_epoch = 1;
  watch.steal = 5;
  watch.steal_from = 10;
  const service::StartOutcome outcome = client.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());
  const std::uint64_t run_id = outcome.admitted->run_id;
  const service::WatchDone done = client.await_watch_done(run_id);
  EXPECT_EQ(done.epochs_completed, 3u);
  svc.stop();

  // The watch's journals outlive the service: open them cold, exactly as a
  // restarted daemon would after a kill. One checkpoint per committed epoch
  // means any crash point leaves a resumable prefix (daemon_torture_test
  // pins the per-crash-point bit-identity; here we pin that the service
  // actually put the files where a restart can find them).
  storage::FileBackend backend(
      (root / ("watch-" + std::to_string(run_id))).string());
  ASSERT_TRUE(backend.exists("daemon.journal"));
  EXPECT_TRUE(backend.exists("fleet.journal"));
  const storage::DaemonJournalScan scan =
      storage::scan_daemon_journal(backend.read("daemon.journal"));
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  // Start record plus one checkpoint per epoch, at minimum.
  EXPECT_GE(scan.records.size(), 1u + done.epochs_completed);
  std::filesystem::remove_all(root);
}

TEST(ServiceShutdown, DrainTimeoutAbortsInFlightRun) {
  ServiceConfig config;
  config.workers = 1;
  config.drain_timeout = std::chrono::milliseconds(1);
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  EnrollRequest inv = small_inventory("big", 30000);
  inv.zone_capacity = 50;
  inv.tolerance = 100;
  inv.rounds = 6;
  client.enroll(inv);

  StartRunRequest run;
  run.inventory = "big";
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());

  // 600 zones x 6 rounds cannot finish inside a 1 ms budget even on a fast
  // machine: the abort switch must fire and the run must report itself
  // aborted instead of wedging stop().
  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(stats.drained_cleanly);
  EXPECT_GE(stats.runs_aborted, 1u);
}

TEST(ServiceShutdown, DrainTimeoutAbortsInFlightWatch) {
  ServiceConfig config;
  config.workers = 1;
  config.drain_timeout = std::chrono::milliseconds(1);
  config.max_watch_epochs = 100000;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  EnrollRequest inv = small_inventory("floor", 2000);
  inv.zone_capacity = 40;
  inv.tolerance = 20;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 100000;
  const service::StartOutcome outcome = client.start_watch(watch);
  ASSERT_TRUE(outcome.admitted.has_value());

  // 100000 epochs cannot drain inside a 1 ms budget: the service abort
  // switch must reach the in-flight MonitorDaemon (DaemonConfig::abort),
  // which gives up instead of grinding through every remaining epoch — so
  // stop() returns promptly instead of exceeding its drain contract by
  // minutes.
  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(stats.drained_cleanly);
}

TEST(ServiceShutdown, DrainTimeoutReportsRunsStillQueuedOnThePool) {
  // One worker, held by a long watch: a run launched behind it is still
  // queued on the pool when the 1 ms budget expires. It must be drained
  // as an aborted run (counted, in-flight balanced), not dropped unseen.
  ServiceConfig config;
  config.workers = 1;
  config.drain_timeout = std::chrono::milliseconds(1);
  config.max_watch_epochs = 100000;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  EnrollRequest inv = small_inventory("floor", 2000);
  inv.zone_capacity = 40;
  inv.tolerance = 20;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 100000;
  ASSERT_TRUE(client.start_watch(watch).admitted.has_value());
  StartRunRequest run;
  run.inventory = "floor";
  const service::StartOutcome queued = client.start_run(run);
  ASSERT_TRUE(queued.admitted.has_value());
  EXPECT_EQ(queued.admitted->admission,
            static_cast<std::uint8_t>(fleet::Admission::kAccepted));

  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(stats.drained_cleanly);
  EXPECT_EQ(stats.runs_aborted, 1u);
  EXPECT_EQ(stats.runs_completed, 2u);  // the watch gave up, the run aborted
}

TEST(ServiceShutdown, DrainTimeoutAnswersDeferredRuns) {
  // One worker and one in-flight slot, held by a long watch: eight runs
  // wait in the deferred queue when the 1 ms budget expires. None of them
  // starts; each is answered with exactly one shutting_down error naming
  // it and is counted as aborted.
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 1;
  config.max_inflight = 1;
  config.drain_timeout = std::chrono::milliseconds(1);
  config.max_watch_epochs = 100000;
  config.metrics = &registry;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("tenant");
  EnrollRequest inv = small_inventory("floor", 2000);
  inv.zone_capacity = 40;
  inv.tolerance = 20;
  client.enroll(inv);

  StartWatchRequest watch;
  watch.inventory = "floor";
  watch.epochs = 100000;
  ASSERT_TRUE(client.start_watch(watch).admitted.has_value());
  std::map<std::string, int> expected;
  StartRunRequest run;
  run.inventory = "floor";
  for (int i = 0; i < 8; ++i) {
    const service::StartOutcome outcome = client.start_run(run);
    ASSERT_TRUE(outcome.admitted.has_value());
    EXPECT_EQ(outcome.admitted->admission,
              static_cast<std::uint8_t>(fleet::Admission::kDeferred));
    expected["run " + std::to_string(outcome.admitted->run_id) +
             " not started: shutting down"] = 1;
  }

  const service::ServiceStats stats = svc.stop();
  EXPECT_FALSE(stats.drained_cleanly);
  EXPECT_EQ(stats.runs_completed, 1u);  // the watch, which gave up
  EXPECT_EQ(stats.runs_aborted, 8u);
  EXPECT_EQ(obs::catalog::service_runs_total(registry, "aborted").value(),
            8u);

  // stop() flushed every answer before it closed the connection.
  std::map<std::string, int> answered;
  for (;;) {
    service::Frame frame;
    try {
      frame = client.read_frame();
    } catch (const std::runtime_error&) {
      break;  // the service closed the connection
    }
    if (static_cast<service::FrameType>(frame.type) !=
        service::FrameType::kError) {
      continue;
    }
    const service::ErrorMsg error = service::decode_error(frame.payload);
    EXPECT_EQ(error.code, service::ErrorCode::kShuttingDown);
    ++answered[error.message];
  }
  EXPECT_EQ(answered, expected);
}

TEST(ServiceHttp, ScrapeEndpointsRenderRegistry) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  MonitorService svc{config};
  svc.start();
  ServiceClient client(svc.port());
  client.hello("acme");
  client.enroll(small_inventory("inv"));
  StartRunRequest run;
  run.inventory = "inv";
  const service::StartOutcome outcome = client.start_run(run);
  ASSERT_TRUE(outcome.admitted.has_value());
  client.await_verdict(outcome.admitted->run_id);

  int status = 0;
  const std::string prom = service::http_get(svc.http_port(), "/metrics",
                                             &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(prom.find("rfidmon_service_connections_total"), std::string::npos);
  EXPECT_NE(prom.find("rfidmon_service_admissions_total"), std::string::npos);
  EXPECT_NE(prom.find("rfidmon_service_run_latency_us"), std::string::npos);
  // The run's own fleet metrics landed in the same registry.
  EXPECT_NE(prom.find("rfidmon_fleet_zones_total"), std::string::npos);

  const std::string json =
      service::http_get(svc.http_port(), "/metrics.json", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("rfidmon_service_frames_total"), std::string::npos);

  EXPECT_EQ(service::http_get(svc.http_port(), "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
  (void)service::http_get(svc.http_port(), "/nope", &status);
  EXPECT_EQ(status, 404);

  svc.stop();
}

}  // namespace
