#include "sim/engine.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace ones::sim {

std::uint32_t SimEngine::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  ONES_EXPECT_MSG(arena_.size() < std::numeric_limits<std::uint32_t>::max(),
                  "event arena exhausted");
  arena_.emplace_back();
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void SimEngine::free_slot(std::uint32_t idx) {
  Event& ev = arena_[idx];
  ev.fn = nullptr;
  // Invalidate every outstanding handle to this slot. (A slot would need
  // 2^32 reuses for the generation to wrap and a stale handle to validate
  // again; no simulated workload gets anywhere near that on one slot.)
  ++ev.gen;
  free_.push_back(idx);
}

void SimEngine::place(std::size_t pos, const HeapEntry& e) {
  heap_[pos] = e;
  arena_[e.idx].pos = static_cast<std::uint32_t>(pos);
}

void SimEngine::sift(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0 && e.before(heap_[(pos - 1) / 2])) {
    place(pos, heap_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  // An entry that moved up is already above its children: this loop stops at once.
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void SimEngine::remove_at(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;  // the former last entry fills the hole
  sift(pos);
}

EventId SimEngine::schedule_at(SimTime when, std::function<void()> fn) {
  const prof::Scope span(profiler_, "engine.schedule");
  ONES_EXPECT_MSG(std::isfinite(when), "event time must be finite");
  ONES_EXPECT_MSG(when >= now_, "cannot schedule events in the past");
  ONES_EXPECT(fn != nullptr);
  const std::uint32_t idx = alloc_slot();
  arena_[idx].fn = std::move(fn);
  heap_.push_back(HeapEntry{when, next_seq_++, idx});
  sift(heap_.size() - 1);
  return (static_cast<EventId>(arena_[idx].gen) << 32) | idx;
}

EventId SimEngine::schedule_after(SimTime delay, std::function<void()> fn) {
  ONES_EXPECT_MSG(delay >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn));
}

bool SimEngine::cancel(EventId id) {
  const prof::Scope span(profiler_, "engine.cancel");
  const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xffffffffULL);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= arena_.size() || arena_[idx].gen != gen) return false;
  // Generation match implies the slot is live: free_slot bumps gen before
  // the slot can ever be reused or observed stale.
  ONES_EXPECT(arena_[idx].fn != nullptr);
  const std::uint32_t pos = arena_[idx].pos;
  ONES_EXPECT_MSG(pos < heap_.size() && heap_[pos].idx == idx, "event heap lost an entry");
  remove_at(pos);
  free_slot(idx);
  return true;
}

bool SimEngine::step() {
  if (heap_.empty()) return false;
  std::function<void()> fn;
  {
    // Extraction only — the callback runs outside this span, so spans it
    // opens (scheduler decisions, nested schedules) are not charged to the
    // engine's pop path.
    const prof::Scope span(profiler_, "engine.pop");
    const HeapEntry top = heap_.front();
    remove_at(0);
    // Release the slot *before* running the callback: a self-cancel from
    // inside the callback must see a stale handle (deterministic no-op), and
    // the callback may schedule new events, which can reallocate the arena —
    // so the callback is moved out first and no Event reference is held.
    fn = std::move(arena_[top.idx].fn);
    free_slot(top.idx);
    now_ = top.when;
    ++fired_;
  }
  if (fire_hook_) fire_hook_(now_, fired_);
  fn();
  return true;
}

void SimEngine::run_until(SimTime limit) {
  while (!heap_.empty()) {
    if (heap_.front().when > limit) break;
    step();
  }
  if (now_ < limit) now_ = limit;
}

void SimEngine::run() {
  while (step()) {
  }
}

}  // namespace ones::sim
