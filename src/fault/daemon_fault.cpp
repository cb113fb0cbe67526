#include "fault/daemon_fault.h"

#include <string>
#include <utility>

namespace rfid::fault {

std::string_view to_string(DaemonCrashPoint point) noexcept {
  switch (point) {
    case DaemonCrashPoint::kEpochStart: return "epoch_start";
    case DaemonCrashPoint::kAfterFleetRun: return "after_fleet_run";
    case DaemonCrashPoint::kBeforeCheckpoint: return "before_checkpoint";
    case DaemonCrashPoint::kAfterCheckpoint: return "after_checkpoint";
  }
  return "unknown";
}

DaemonFaultInjector::DaemonFaultInjector(DaemonFaultPlan plan)
    : plan_(std::move(plan)),
      crash_fired_(plan_.crashes.size(), false),
      hang_fired_(plan_.hang_epochs.size(), false) {}

void DaemonFaultInjector::at(std::uint64_t epoch, DaemonCrashPoint point) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    const DaemonCrash& crash = plan_.crashes[i];
    if (crash_fired_[i] || crash.epoch != epoch || crash.point != point) {
      continue;
    }
    crash_fired_[i] = true;
    ++crashes_delivered_;
    const std::string what = "daemon crash injected at epoch " +
                             std::to_string(epoch) + " (" +
                             std::string(to_string(point)) + ")";
    lock.unlock();
    throw CrashInjected(what);
  }
}

void DaemonFaultInjector::maybe_hang(std::uint64_t epoch,
                                     const std::stop_token& stop) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < plan_.hang_epochs.size(); ++i) {
    if (hang_fired_[i] || plan_.hang_epochs[i] != epoch) continue;
    hang_fired_[i] = true;
    ++hangs_delivered_;
    (void)hang_cv_.wait(lock, stop, [] { return false; });
    lock.unlock();
    throw CrashInjected("daemon hang at epoch " + std::to_string(epoch) +
                        " stopped");
  }
}

std::uint64_t DaemonFaultInjector::crashes_delivered() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return crashes_delivered_;
}

std::uint64_t DaemonFaultInjector::hangs_delivered() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hangs_delivered_;
}

}  // namespace rfid::fault
