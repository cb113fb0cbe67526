// Deadline-ordered thread pool for zone sessions.
//
// The fleet orchestrator queues one task per wave, which queues one task per
// (zone, reader, attempt): a whole wire session each, so the policy that
// matters is order. Every task waits in one heap, earliest deadline first
// (UTRP zones closest to their Alg. 5 budget run first), ties in submission
// order, and a free worker takes the top. One mutex guards the heap and every
// count, so a submit, a take, stop()'s sweep and the idle test are one step.
//
// Determinism contract: the pool promises nothing about which thread runs a
// task or when. FleetOrchestrator seeds every session from its task identity
// (inventory, zone, reader, attempt) and aggregates in index order, so its
// output is bit-identical on 1 or 64 threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
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

  /// wait_idle() bounded by `timeout`: true if the pool went idle in time.
  /// A watchdog that must not inherit a wedged session's hang polls this.
  [[nodiscard]] bool wait_idle_for(std::chrono::milliseconds timeout);

  /// Deterministic shutdown. drain=true runs every queued task first
  /// (wait_idle() then join); drain=false abandons the tasks that have not
  /// started, counted in abandoned(), while in-flight ones finish.
  /// Idempotent. Later submits are abandoned too, so a racing requeue
  /// cannot resurrect the pool: no task starts once stop() has returned.
  void stop(bool drain);

  /// Tasks discarded by stop(drain=false) or submitted after stop().
  [[nodiscard]] std::uint64_t abandoned() const noexcept {
    return abandoned_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned threads() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }
  /// Tasks completed so far.
  [[nodiscard]] std::uint64_t executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    double deadline_us;
    std::uint64_t sequence;
    Task fn;
  };

  void worker_loop();
  // Both require mu_.
  [[nodiscard]] bool idle() const noexcept { return heap_.empty() && running_ == 0; }
  void check_conservation() const;

  std::mutex mu_;
  std::condition_variable work_cv_;  // heap_ gained a task, or shutdown_
  std::condition_variable idle_cv_;  // idle() became true
  std::vector<Entry> heap_;          // min-heap on (deadline_us, sequence)
  std::uint64_t submitted_ = 0;      // every submit() call; the sequence
  std::uint64_t running_ = 0;        // taken, not yet finished
  bool stopped_ = false;             // discard further submissions
  bool shutdown_ = false;            // workers exit once heap_ is empty
  // Written under mu_, read lock-free by the accessors.
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> abandoned_{0};
  std::vector<std::thread> threads_;  // last: workers use every member above
};

}  // namespace rfid::fleet
