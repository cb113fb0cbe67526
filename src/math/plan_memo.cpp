#include "math/plan_memo.h"

#include <deque>
#include <map>
#include <mutex>

namespace rfid::math {

namespace {

struct PlanMemo {
  std::mutex mu;
  // Guarded by mu.
  std::map<detail::PlanKey, detail::MemoPlan> plans;
  std::deque<decltype(plans)::iterator> insertion_order;  // oldest first
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

PlanMemo& memo() {
  static PlanMemo instance;
  return instance;
}

}  // namespace

namespace detail {

std::optional<MemoPlan> plan_memo_find(const PlanKey& key) {
  PlanMemo& t = memo();
  const std::lock_guard lock(t.mu);
  const auto it = t.plans.find(key);
  if (it == t.plans.end()) {
    ++t.misses;
    return std::nullopt;
  }
  ++t.hits;
  return it->second;
}

void plan_memo_store(const PlanKey& key, const MemoPlan& plan) {
  PlanMemo& t = memo();
  const std::lock_guard lock(t.mu);
  if (t.plans.contains(key)) return;  // a concurrent miss stored it first
  if (t.plans.size() >= kPlanMemoCapacity) {
    t.plans.erase(t.insertion_order.front());
    t.insertion_order.pop_front();
  }
  t.insertion_order.push_back(t.plans.emplace(key, plan).first);
}

}  // namespace detail

PlanMemoStats plan_memo_stats() {
  PlanMemo& t = memo();
  const std::lock_guard lock(t.mu);
  return {.hits = t.hits, .misses = t.misses, .entries = t.plans.size()};
}

void clear_plan_memo() {
  PlanMemo& t = memo();
  const std::lock_guard lock(t.mu);
  t.plans.clear();
  t.insertion_order.clear();
  t.hits = 0;
  t.misses = 0;
}

}  // namespace rfid::math
