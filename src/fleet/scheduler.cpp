#include "fleet/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/expect.h"

namespace rfid::fleet {

// Heap order: the earliest deadline, then the lowest sequence, on top.
constexpr auto kLater = [](const auto& a, const auto& b) noexcept {
  if (a.deadline_us != b.deadline_us) return a.deadline_us > b.deadline_us;
  return a.sequence > b.sequence;
};

FleetScheduler::FleetScheduler(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

FleetScheduler::~FleetScheduler() { stop(/*drain=*/true); }

void FleetScheduler::check_conservation() const {
  // Every task submitted is in one place: done, dropped, queued or running.
  RFID_DEBUG_EXPECT(
      submitted_ == executed_.load(std::memory_order_relaxed) +
                        abandoned_.load(std::memory_order_relaxed) +
                        heap_.size() + running_,
      "fleet pool lost or invented a task");
}

void FleetScheduler::stop(bool drain) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!drain) {
    // One step with submit(): a requeue that loses the race to the lock
    // sees stopped_ and is abandoned, one that wins is swept here.
    stopped_ = true;
    abandoned_.fetch_add(heap_.size(), std::memory_order_relaxed);
    heap_.clear();
    check_conservation();
    if (idle()) idle_cv_.notify_all();
  }
  idle_cv_.wait(lock, [this] { return idle(); });  // queue run or swept
  if (shutdown_) return;  // threads already reaped
  stopped_ = true;
  shutdown_ = true;
  lock.unlock();
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void FleetScheduler::submit(double deadline_us, Task fn) {
  RFID_EXPECT(fn != nullptr, "null fleet task");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t sequence = submitted_++;
    if (stopped_) {
      abandoned_.fetch_add(1, std::memory_order_relaxed);
    } else {
      heap_.push_back(Entry{deadline_us, sequence, std::move(fn)});
      std::ranges::push_heap(heap_, kLater);
    }
    check_conservation();
  }
  work_cv_.notify_one();
}

void FleetScheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return shutdown_ || !heap_.empty(); });
    if (heap_.empty()) return;  // shut down with nothing left to run
    std::ranges::pop_heap(heap_, kLater);
    Task fn = std::move(heap_.back().fn);
    heap_.pop_back();
    ++running_;
    check_conservation();
    lock.unlock();
    fn();
    fn = nullptr;  // the task's captures die before it counts as finished
    lock.lock();
    --running_;
    executed_.fetch_add(1, std::memory_order_relaxed);
    check_conservation();
    if (idle()) idle_cv_.notify_all();
  }
}

void FleetScheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return idle(); });
}

bool FleetScheduler::wait_idle_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, timeout, [this] { return idle(); });
}

}  // namespace rfid::fleet
