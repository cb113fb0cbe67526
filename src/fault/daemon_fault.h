// Daemon fault injection: scripted crashes and hangs for the supervised
// monitoring loop (daemon/daemon.h).
//
// The storage injector (storage_fault.h) kills a workload at the k-th disk
// operation; this one kills the *daemon's epoch loop* at semantic points —
// epoch start, after the fleet run, either side of the checkpoint write —
// so resume tests can prove alert history is preserved across every
// interesting boundary without counting storage ops.
//
// Hangs are cooperative, because a std::thread cannot be killed from
// outside: maybe_hang() blocks the monitor thread until its monitor life's
// stop token is stopped (the supervisor's kill after a missed heartbeat, or
// an external stop relayed into the life), at which point the hung thread
// throws CrashInjected and unwinds. A restarted life brings a fresh token,
// so nothing here needs re-arming.
//
// Every scripted event fires at most once (a restarted epoch must not
// re-crash on the same script entry, or no sweep would ever terminate).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <string_view>
#include <vector>

#include "fault/storage_fault.h"

namespace rfid::fault {

/// Where in the epoch loop a scripted crash is delivered.
enum class DaemonCrashPoint : std::uint8_t {
  kEpochStart = 0,       // epoch admitted, nothing executed yet
  kAfterFleetRun = 1,    // fleet result in hand, nothing durable yet
  kBeforeCheckpoint = 2, // checkpoint encoded, append not yet attempted
  kAfterCheckpoint = 3,  // checkpoint durable, epoch not yet acknowledged
};

[[nodiscard]] std::string_view to_string(DaemonCrashPoint point) noexcept;

struct DaemonCrash {
  std::uint64_t epoch = 0;
  DaemonCrashPoint point = DaemonCrashPoint::kEpochStart;
};

/// Everything defaults to off; a default plan injects nothing.
struct DaemonFaultPlan {
  std::vector<DaemonCrash> crashes;
  /// Epochs whose monitor body hangs (blocks until its stop is requested).
  std::vector<std::uint64_t> hang_epochs;
};

/// Thread-safe: the monitor thread calls at()/maybe_hang() while any thread
/// reads the delivery counts.
class DaemonFaultInjector {
 public:
  explicit DaemonFaultInjector(DaemonFaultPlan plan);

  /// Throws CrashInjected iff the plan scripts (epoch, point) and that
  /// entry has not fired yet.
  void at(std::uint64_t epoch, DaemonCrashPoint point);

  /// Blocks until `stop` is stopped iff the plan scripts a hang for this
  /// epoch (once; a token that never stops hangs forever), then throws
  /// CrashInjected. Returns immediately when the epoch is not scripted.
  void maybe_hang(std::uint64_t epoch, const std::stop_token& stop);

  [[nodiscard]] std::uint64_t crashes_delivered() const;
  [[nodiscard]] std::uint64_t hangs_delivered() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable_any hang_cv_;  // woken only by a stop request
  DaemonFaultPlan plan_;
  std::vector<bool> crash_fired_;
  std::vector<bool> hang_fired_;
  std::uint64_t crashes_delivered_ = 0;
  std::uint64_t hangs_delivered_ = 0;
};

}  // namespace rfid::fault
