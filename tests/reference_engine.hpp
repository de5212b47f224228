// Reference discrete-event engine for the differential equivalence harness
// (tests/engine_equivalence_test.cpp).
//
// This is the seed's `sim::SimEngine` — a std::priority_queue min-heap on
// (when, seq), callbacks in a hash map keyed by id and cancellation by
// tombstones in a hash set — kept verbatim and compiled into tests only. It
// is the executable specification the production engine (a heap over an
// event arena with exact cancellation) must match event-for-event: same fire
// order, same now() trajectory, same cancel() return values, same pending()
// counts.
// Do not "improve" it; its value is that it stays simple and obviously
// correct.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/expect.hpp"
#include "sim/engine.hpp"

namespace ones::sim::testing {

class ReferenceEngine {
 public:
  ReferenceEngine() = default;
  ReferenceEngine(const ReferenceEngine&) = delete;
  ReferenceEngine& operator=(const ReferenceEngine&) = delete;

  SimTime now() const { return now_; }

  EventId schedule_at(SimTime when, std::function<void()> fn) {
    ONES_EXPECT_MSG(std::isfinite(when), "event time must be finite");
    ONES_EXPECT_MSG(when >= now_, "cannot schedule events in the past");
    ONES_EXPECT(fn != nullptr);
    const EventId id = next_id_++;
    queue_.push(Entry{when, next_seq_++, id});
    callbacks_.emplace(id, std::move(fn));
    return id;
  }

  EventId schedule_after(SimTime delay, std::function<void()> fn) {
    ONES_EXPECT_MSG(delay >= 0.0, "delay must be non-negative");
    return schedule_at(now_ + delay, std::move(fn));
  }

  bool cancel(EventId id) {
    auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);
    cancelled_.insert(id);
    return true;
  }

  bool step() {
    while (!queue_.empty()) {
      Entry top = queue_.top();
      queue_.pop();
      auto cit = cancelled_.find(top.id);
      if (cit != cancelled_.end()) {
        cancelled_.erase(cit);
        continue;
      }
      auto it = callbacks_.find(top.id);
      ONES_EXPECT(it != callbacks_.end());
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      now_ = top.when;
      ++fired_;
      fn();
      return true;
    }
    return false;
  }

  void run_until(SimTime limit) {
    while (!queue_.empty()) {
      Entry top = queue_.top();
      if (cancelled_.count(top.id)) {
        queue_.pop();
        cancelled_.erase(top.id);
        continue;
      }
      if (top.when > limit) break;
      step();
    }
    if (now_ < limit) now_ = limit;
  }

  void run() {
    while (step()) {
    }
  }

  std::size_t pending() const { return queue_.size() - cancelled_.size(); }

  std::uint64_t fired() const { return fired_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_set<EventId> cancelled_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
};

}  // namespace ones::sim::testing
