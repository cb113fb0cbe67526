// Deadline-aware work-stealing thread pool for zone sessions.
//
// The fleet orchestrator hands this pool one task per wave, which queues one
// task per (zone, reader, attempt); each of those is a whole wire session —
// milliseconds of simulated protocol work — so scheduling overhead is cold
// and the interesting policy is *order*:
//
//  * Every worker owns a priority queue ordered earliest-deadline-first
//    (UTRP zones whose Alg. 5 budget is closest to expiry run first; ties
//    break by submission sequence, so equal-deadline tasks are FIFO).
//  * submit() round-robins tasks across workers, except that a worker
//    submitting from inside a task (a wave's attempts, a zone retry) pushes
//    to its own queue — the work lands on provably-alive capacity without a
//    trip through another worker's lock.
//  * An idle worker steals: it peeks every other queue and takes the
//    globally earliest deadline on offer, so a backlog behind a slow worker
//    drains through whoever is free (the hammer test pins this down by
//    blocking one worker and asserting its queue still empties).
//
// Determinism contract: the pool promises nothing about which thread runs a
// task or in what wall-clock order — fleet results must be derived from task
// *identity* (inventory, zone, reader, attempt), never from scheduling. That
// is why FleetOrchestrator seeds every session from its task identity and
// aggregates in index order: bit-identical on 1 or 64 threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rfid::fleet {

class FleetScheduler {
 public:
  using Task = std::function<void()>;

  /// `threads` = 0 picks the hardware concurrency (at least 1). Workers
  /// start immediately and sleep until work arrives.
  explicit FleetScheduler(unsigned threads = 0);
  /// Waits for every submitted task (requeues included), then joins.
  ~FleetScheduler();

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  /// Enqueues `fn` with an earliest-deadline-first priority (microseconds;
  /// +infinity = "whenever"). Safe to call from worker threads (a task may
  /// submit its own retry).
  void submit(double deadline_us, Task fn);

  /// Blocks until every task submitted so far — and every task those tasks
  /// submitted — has finished.
  void wait_idle();

  /// Deadline-bounded wait_idle(): returns true if the pool went idle
  /// within `timeout`, false if work is still outstanding. A watchdog that
  /// must not inherit a wedged session's hang polls this instead of
  /// blocking forever.
  [[nodiscard]] bool wait_idle_for(std::chrono::milliseconds timeout);

  /// Deterministic shutdown. drain=true executes every queued task first
  /// (equivalent to wait_idle() then join); drain=false abandons tasks that
  /// have not started — in-flight tasks still run to completion, queued
  /// ones are discarded and counted in abandoned(). Idempotent; after
  /// stop() further submits are discarded (counted as abandoned), so a
  /// racing requeue from an in-flight task cannot resurrect the pool.
  void stop(bool drain);

  /// Tasks discarded by stop(drain=false) or submitted after stop().
  [[nodiscard]] std::uint64_t abandoned() const noexcept {
    return abandoned_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  /// Tasks completed so far.
  [[nodiscard]] std::uint64_t executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Tasks a worker took from another worker's queue. Timing-dependent:
  /// never fold this into anything that must be deterministic.
  [[nodiscard]] std::uint64_t stolen() const noexcept {
    return stolen_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    double deadline_us;
    std::uint64_t sequence;
    Task fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.deadline_us != b.deadline_us) return a.deadline_us > b.deadline_us;
      return a.sequence > b.sequence;
    }
  };
  struct Worker {
    std::mutex mu;
    std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  };

  void worker_loop(std::size_t self);
  [[nodiscard]] bool try_take(std::size_t self, Entry& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  bool shutdown_ = false;
  bool joined_ = false;  // threads reaped (stop() or destructor ran)

  std::atomic<bool> stopped_{false};  // discard further submissions
  std::atomic<std::uint64_t> next_sequence_{0};
  std::atomic<std::size_t> pending_{0};      // queued, not yet taken
  std::atomic<std::size_t> outstanding_{0};  // submitted, not yet finished
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> abandoned_{0};
};

}  // namespace rfid::fleet
