// Deterministic discrete-event simulation engine (DESIGN.md §12.1).
//
// A binary min-heap of {when, seq, arena index} entries over a slab arena
// that holds the callbacks. Events scheduled for the same instant fire in
// scheduling order (FIFO tie-break on a sequence counter), which makes runs
// bit-reproducible. Job arrivals, epoch completions, scaling protocol steps
// and periodic reschedulers are all events.
//
// EventIds are generation-tagged arena handles: cancelling an event that
// already fired (or firing right now) is a deterministic no-op returning
// false, even after its arena slot has been reused by a newer event.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/expect.hpp"
#include "prof/profiler.hpp"

namespace ones::sim {

/// Simulated time in seconds since the start of the run.
using SimTime = double;

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Packs (generation << 32 | arena index); never 0 for a live event, so 0
/// works as a "no event" sentinel. Stale handles (fired / cancelled events,
/// even ones whose slot was since reused) fail generation validation and
/// cancel() returns false.
using EventId = std::uint64_t;

class SimEngine {
 public:
  // The first 16 heap entries are allocated up front, not for the heap's
  // sake: without this allocation glibc's heap-top trimming lands otherwise
  // and perfbench's ones_32gpu set-up measured about four times slower
  // (ROADMAP item 14).
  SimEngine() { heap_.reserve(16); }
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now). Returns a handle.
  EventId schedule_at(SimTime when, std::function<void()> fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_after(SimTime delay, std::function<void()> fn);

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled (both are benign — cancellation is idempotent).
  bool cancel(EventId id);

  /// Fire the next pending event, advancing the clock. Returns false when the
  /// queue is empty.
  bool step();

  /// Run until the queue drains or the clock passes `limit`.
  /// Events scheduled exactly at `limit` still fire.
  void run_until(SimTime limit);

  /// Run until the queue drains.
  void run();

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return heap_.size(); }

  /// Total number of events fired so far.
  std::uint64_t fired() const { return fired_; }

  /// Invoked after the clock advances for every fired event, before its
  /// callback runs. `seq` is the fire-order counter (`fired()`), which is
  /// strictly increasing — unlike the scheduling sequence, which can fire
  /// out of order. Tracing hook: the trace recorder stamps emitted records
  /// with it so a replay can cross-check emission order against event order.
  /// Kept as a plain std::function so `sim` stays below `trace` in the
  /// module layering; an empty hook costs one branch.
  void set_fire_hook(std::function<void(SimTime now, std::uint64_t seq)> hook) {
    fire_hook_ = std::move(hook);
  }

  /// Install (or clear, with nullptr) the host-time profiler (DESIGN.md
  /// §14): schedule / cancel / pop then run under `engine.schedule` /
  /// `engine.cancel` / `engine.pop` spans. Same contract as the fire hook:
  /// not owned, null by default, one branch per site when off, and
  /// attaching it never changes event order or results.
  void set_profiler(prof::Profiler* profiler) { profiler_ = profiler; }

 private:
  /// Arena entry. `gen` survives the slot's whole lifetime: it is bumped on
  /// every free (fire or cancel), so a handle minted at generation g stops
  /// validating the moment the slot is released, and keeps failing after the
  /// slot is reused at generation g+1. Starts at 1 so no live handle is 0.
  /// `pos` is the event's index in `heap_` while pending: cancel is exact.
  struct Event {
    std::uint32_t gen = 1;
    std::uint32_t pos = 0;
    std::function<void()> fn;
  };

  /// The ordering key travels with the index, so sifting reads no arena
  /// entry. Earlier time first, then earlier scheduling (seq is unique).
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t idx;
    bool before(const HeapEntry& o) const { return when != o.when ? when < o.when : seq < o.seq; }
  };

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void place(std::size_t pos, const HeapEntry& e);
  /// Move the entry at heap position `pos` up or down to where it belongs.
  void sift(std::size_t pos);
  void remove_at(std::size_t pos);

  SimTime now_ = 0.0;
  std::function<void(SimTime, std::uint64_t)> fire_hook_;
  prof::Profiler* profiler_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;

  std::vector<Event> arena_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;  // min-heap on (when, seq); only live events
};

}  // namespace ones::sim
