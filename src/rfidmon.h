// Umbrella header for the rfidmon library — everything a downstream user
// needs to monitor a set of RFID tags for missing tags, per
// Tan, Sheng & Li, "How to Monitor for Missing RFID Tags" (ICDCS 2008).
//
// Quick orientation (see README.md for a walkthrough):
//   * protocol/trp.h        — TRP: trusted-reader monitoring (Sec. 4)
//   * protocol/utrp.h       — UTRP: untrusted-reader monitoring (Sec. 5)
//   * math/frame_optimizer.h — Eq. (2) / Eq. (3) frame sizing
//   * wire/session.h        — the server <-> reader exchange over lossy links
//   * protocol/identification.h — naming the missing tags; its frames are
//                              sized by the zero estimator (estimate/cardinality.h)
//   * protocol/collect_all.h — the collect-all baseline
//   * server/inventory_server.h — multi-group server front-end
//   * fleet/fleet.h         — concurrent multi-zone fleet orchestration
//   * storage/durable_server.h — crash-consistent persistence (WAL + snapshots)
//   * attack/…              — the adversaries both protocols are measured against
#pragma once

#include "attack/split_attack.h"      // IWYU pragma: export
#include "attack/timed_attack.h"      // IWYU pragma: export
#include "attack/utrp_attack.h"       // IWYU pragma: export
#include "bitstring/bitstring.h"      // IWYU pragma: export
#include "estimate/cardinality.h"     // IWYU pragma: export
#include "fault/fault.h"              // IWYU pragma: export
#include "fault/storage_fault.h"      // IWYU pragma: export
#include "fleet/fleet.h"              // IWYU pragma: export
#include "fleet/scheduler.h"          // IWYU pragma: export
#include "fusion/fusion.h"            // IWYU pragma: export
#include "hash/slot_hash.h"           // IWYU pragma: export
#include "math/approximation.h"       // IWYU pragma: export
#include "math/binomial.h"            // IWYU pragma: export
#include "math/detection.h"           // IWYU pragma: export
#include "math/frame_optimizer.h"     // IWYU pragma: export
#include "math/fused_detection.h"     // IWYU pragma: export
#include "protocol/collect_all.h"     // IWYU pragma: export
#include "protocol/identification.h"  // IWYU pragma: export
#include "protocol/messages.h"        // IWYU pragma: export
#include "protocol/multi_round.h"     // IWYU pragma: export
#include "protocol/provisioning.h"    // IWYU pragma: export
#include "protocol/q_protocol.h"      // IWYU pragma: export
#include "protocol/tree_walk.h"       // IWYU pragma: export
#include "protocol/trp.h"             // IWYU pragma: export
#include "protocol/utrp.h"            // IWYU pragma: export
#include "radio/channel.h"            // IWYU pragma: export
#include "radio/frame.h"              // IWYU pragma: export
#include "radio/timing.h"             // IWYU pragma: export
#include "server/group_planner.h"     // IWYU pragma: export
#include "server/inventory_server.h"  // IWYU pragma: export
#include "server/snapshot.h"          // IWYU pragma: export
#include "sim/event_queue.h"          // IWYU pragma: export
#include "storage/backend.h"          // IWYU pragma: export
#include "storage/durable_server.h"   // IWYU pragma: export
#include "storage/fleet_journal.h"    // IWYU pragma: export
#include "storage/journal.h"          // IWYU pragma: export
#include "storage/record_log.h"       // IWYU pragma: export
#include "storage/server_state.h"     // IWYU pragma: export
#include "sim/trial_runner.h"         // IWYU pragma: export
#include "tag/tag_set.h"              // IWYU pragma: export
#include "util/codec.h"               // IWYU pragma: export
#include "util/random.h"              // IWYU pragma: export
#include "wire/frame.h"               // IWYU pragma: export
#include "wire/link.h"                // IWYU pragma: export
#include "wire/messages.h"            // IWYU pragma: export
#include "wire/session.h"             // IWYU pragma: export
#include "util/stats.h"               // IWYU pragma: export
#include "util/table.h"               // IWYU pragma: export
