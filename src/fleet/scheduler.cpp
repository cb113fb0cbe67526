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

FleetScheduler::FleetScheduler(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] {
      std::unique_lock<std::mutex> lock(mu_);
      take_and_run(lock, /*worker=*/true);
    });
  }
}

FleetScheduler::~FleetScheduler() { stop(); }

void FleetScheduler::check_conservation() const {
  // Every task submitted is in one place: done, queued or running.
  RFID_DEBUG_EXPECT(
      submitted_ == executed_.load(std::memory_order_relaxed) + heap_.size() +
                        running_,
      "fleet pool lost or invented a task");
}

void FleetScheduler::submit(double deadline_us, Task fn) {
  RFID_EXPECT(fn != nullptr, "null fleet task");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    RFID_EXPECT(!shutdown_, "fleet task submitted after stop()");
    heap_.push_back(Entry{deadline_us, submitted_++, std::move(fn)});
    std::ranges::push_heap(heap_, kLater);
    check_conservation();
  }
  work_cv_.notify_one();
}

void FleetScheduler::take_and_run(std::unique_lock<std::mutex>& lock,
                                  bool worker) noexcept {
  while (true) {
    work_cv_.wait(lock, [this, worker] {
      return !heap_.empty() || (worker ? shutdown_ : running_ == 0);
    });
    if (heap_.empty()) return;
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
    if (idle()) {
      idle_cv_.notify_all();
      work_cv_.notify_all();  // a drainer waits there for idle()
    }
  }
}

void FleetScheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  take_and_run(lock, /*worker=*/false);
}

void FleetScheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return idle(); });
}

void FleetScheduler::stop() {
  std::unique_lock<std::mutex> lock(mu_);
  take_and_run(lock, /*worker=*/false);
  if (std::exchange(shutdown_, true)) return;  // workers already joined
  lock.unlock();
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

}  // namespace rfid::fleet
