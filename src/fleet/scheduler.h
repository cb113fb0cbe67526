// Deadline-ordered task pool for zone sessions.
//
// The fleet orchestrator queues one task per (zone, reader, attempt): a
// whole wire session each, so the policy that matters is order. Every task
// waits in one heap, earliest deadline first (UTRP zones closest to their
// Alg. 5 budget run first), ties in submission order. The pool's own
// workers and a caller inside drain() take the top through one
// take-and-run loop, so a pool with no workers is run entirely by the
// thread that drains it. One mutex guards the heap and every count, so a
// submit, a take and the idle test are one step.
//
// Determinism contract: the pool promises nothing about which thread runs a
// task or when. FleetOrchestrator seeds every session from its task identity
// (inventory, zone, reader, attempt) and aggregates in index order, so its
// output is bit-identical on 1 or 64 threads.
#pragma once

#include <atomic>
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

  /// Starts exactly `workers` threads, which sleep until work arrives. With
  /// 0 nothing runs until a caller drains the pool.
  explicit FleetScheduler(unsigned workers);
  /// stop().
  ~FleetScheduler();

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  /// Enqueues `fn` with an earliest-deadline-first priority (microseconds;
  /// +infinity = "whenever"). Safe to call from a running task (a task may
  /// submit its own retry); not after stop().
  void submit(double deadline_us, Task fn);

  /// The calling thread takes and runs tasks beside the workers until every
  /// task submitted so far, and every task those tasks submitted, has
  /// finished. A task that throws ends the process, as it does on a worker.
  void drain();

  /// Blocks, taking no task, until the pool is idle as drain() leaves it.
  void wait_idle();

  /// drain(), then joins the workers. Idempotent.
  void stop();

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

  // Requires mu_ held by `lock`. A worker returns once shutdown_ is set and
  // the heap is empty; a drainer once the pool is idle.
  void take_and_run(std::unique_lock<std::mutex>& lock, bool worker) noexcept;
  // Both require mu_.
  [[nodiscard]] bool idle() const noexcept { return heap_.empty() && running_ == 0; }
  void check_conservation() const;

  std::mutex mu_;
  std::condition_variable work_cv_;  // heap_ gained a task, idle() or shutdown_
  std::condition_variable idle_cv_;  // idle() became true
  std::vector<Entry> heap_;          // min-heap on (deadline_us, sequence)
  std::uint64_t submitted_ = 0;      // every submit() call; the sequence
  std::uint64_t running_ = 0;        // taken, not yet finished
  bool shutdown_ = false;            // stop() has drained the pool
  // Written under mu_, read lock-free by executed().
  std::atomic<std::uint64_t> executed_{0};
  std::vector<std::thread> threads_;  // last: workers use every member above
};

}  // namespace rfid::fleet
