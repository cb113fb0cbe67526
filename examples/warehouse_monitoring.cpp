// Warehouse monitoring: the paper's motivating scenario (Sec. 1), scaled up
// and driven end to end through the fleet orchestrator.
//
// A retailer's back-room server watches several heterogeneous inventories
// at once — the "different sized groups" flexibility the paper claims over
// yoking-proof schemes — but a real warehouse is also *sharded*: a reader's
// field covers one aisle or cage, not the whole floor. So each inventory is
// planned into zones (server::plan_groups, Σ m_i = M pigeonhole guarantee),
// and the fleet executes every zone session concurrently on an
// earliest-deadline-first pool, aggregating one global verdict:
//
//   * "razor-blades"  — 60 high-value items, zero tolerance, 99% confidence,
//                       one trusted dock reader (TRP);
//   * "apparel"       — 1200 garments, M = 20, 95%, trusted readers, zones
//                       of <= 300 (TRP); shoplifters hit this one;
//   * "electronics"   — 400 boxed TVs, M = 5, 95%, UNtrusted night-shift
//                       readers with a c = 20 adversary budget and an
//                       Alg. 5 deadline (UTRP); an employee steals six;
//   * "pharmacy"      — 240 regulated items, M = 2, 99%, trusted readers;
//                       one cage reader crashes mid-scan and the fleet
//                       requeues it (the retry recovers the zone);
//   * "cold-storage"  — 40 items behind a dead uplink: every attempt times
//                       out, the zone is escalated as a fleet alert, and
//                       the global verdict degrades to "inconclusive"
//                       territory (outranked here by the thefts).
//
// The run is seeded and deterministic: the printed summary is identical no
// matter how many worker threads execute it.
#include <cstdio>
#include <string>
#include <utility>

#include "rfidmon.h"

namespace {

using namespace rfid;

fleet::InventorySpec plan_inventory(const char* name, tag::TagSet tags,
                                    std::uint64_t tolerance, double alpha,
                                    std::uint64_t zone_capacity) {
  fleet::InventorySpec spec;
  spec.name = name;
  spec.plan = server::plan_groups({.total_tags = tags.size(),
                                   .total_tolerance = tolerance,
                                   .alpha = alpha,
                                   .max_group_size = zone_capacity});
  spec.tags = std::move(tags);
  spec.alpha = alpha;
  return spec;
}

}  // namespace

int main() {
  util::Rng rng(7);

  obs::MetricsRegistry metrics;
  obs::SessionLog session_log(128);
  storage::MemoryBackend journal_store;

  fleet::FleetOrchestrator orchestrator({.seed = 7,
                                         .threads = 4,
                                         .max_zone_attempts = 3,
                                         .fleet_name = "back-room",
                                         .metrics = &metrics,
                                         .session_log = &session_log,
                                         .journal_backend = &journal_store});

  // --- razor-blades: small, zero tolerance, one zone --------------------
  orchestrator.submit(plan_inventory(
      "razor-blades", tag::TagSet::make_random(60, rng), 0, 0.99, 0));

  // --- apparel: 1200 garments in 4 zones; 25 walk out -------------------
  {
    auto spec = plan_inventory("apparel", tag::TagSet::make_random(1200, rng),
                               20, 0.95, 300);
    for (std::uint64_t i = 0; i < 25; ++i) {
      spec.stolen.push_back(i * 37 % 1200);  // scattered across the floor
    }
    orchestrator.submit(std::move(spec));
  }

  // --- electronics: untrusted night reader, deadline, 6 TVs stolen ------
  {
    auto spec = plan_inventory(
        "electronics", tag::TagSet::make_random(400, rng), 5, 0.95, 100);
    spec.protocol = fleet::Protocol::kUtrp;
    spec.comm_budget = 20;
    spec.session.utrp_deadline_us = 30e6;  // Alg. 5: report within 30 s
    for (std::uint64_t i = 0; i < 6; ++i) spec.stolen.push_back(i * 61 % 400);
    orchestrator.submit(std::move(spec));
  }

  // --- pharmacy: a reader crashes mid-scan; the fleet requeues the zone --
  {
    auto spec = plan_inventory(
        "pharmacy", tag::TagSet::make_random(240, rng), 2, 0.99, 60);
    spec.zone_faults.emplace_back(
        1, fault::parse_fault_plan("crash 10000 never\n"));
    orchestrator.submit(std::move(spec));
  }

  // --- cold-storage: dead uplink, every attempt exhausts its retries ----
  {
    auto spec = plan_inventory(
        "cold-storage", tag::TagSet::make_random(40, rng), 1, 0.95, 0);
    spec.session.uplink.drop_prob = 1.0;
    spec.session.max_retries = 2;
    orchestrator.submit(std::move(spec));
  }

  const fleet::FleetResult result = orchestrator.run();

  std::printf("%s\n", fleet::summary(result).c_str());
  std::printf("scheduler: %u worker thread(s)\n", result.threads);
  std::printf("journal: %zu bytes (replayable after a crash mid-run)\n",
              journal_store.read("fleet.journal").size());

  // The verdict line a night-shift operator would page on.
  switch (result.verdict) {
    case fleet::GlobalVerdict::kIntact:
      std::printf("\nwarehouse verified intact\n");
      break;
    case fleet::GlobalVerdict::kViolated:
      std::printf("\nTHEFT DETECTED — see per-inventory verdicts above\n");
      break;
    case fleet::GlobalVerdict::kInconclusive:
      std::printf("\ncoverage incomplete — dispatch a physical audit to the "
                  "escalated zones\n");
      break;
  }
  return result.verdict == fleet::GlobalVerdict::kIntact ? 0 : 1;
}
