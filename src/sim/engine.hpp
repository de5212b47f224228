// Deterministic discrete-event simulation engine.
//
// The engine is a calendar queue (bucketed timer wheel, DESIGN.md §12):
// events live in a slab arena and are indexed by time buckets, giving O(1)
// amortized schedule / pop / cancel against the O(log n) of a binary heap —
// the difference between minutes and hours on 10k-GPU, ~1M-job traces.
// Events scheduled for the same instant fire in scheduling order (FIFO
// tie-break on a sequence counter), which makes runs bit-reproducible. All
// simulated components — job arrivals, epoch completions, scaling protocol
// steps, periodic reschedulers — are expressed as events.
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
  SimEngine() : buckets_(kMinBuckets) {}
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
  std::size_t pending() const { return live_; }

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
  struct Event {
    SimTime when = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    std::function<void()> fn;
  };

  /// Arena indices, sorted descending by (when, seq) so back() is the bucket
  /// minimum and the hot-path removal is pop_back().
  using Bucket = std::vector<std::uint32_t>;

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

  /// Absolute (non-wrapped) slot number of a timestamp. Monotone in `when`
  /// (clamped at the top end, which preserves monotonicity), so the cursor
  /// walk visits slots in time order.
  std::uint64_t slot_of(SimTime when) const;

  /// Locate the global minimum (when, seq) entry: cursor ring walk with
  /// exact-slot year check, falling back to a scan of all bucket minima when
  /// a whole ring lap is empty (far-future jumps). Leaves cursor_slot_ at
  /// the returned entry's slot. Requires live_ > 0.
  struct MinRef {
    std::uint32_t idx;
    std::size_t bucket;
  };
  MinRef find_min();

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void insert_into_bucket(std::uint32_t idx);
  void remove_from_bucket(std::uint32_t idx);
  /// Rebuild the calendar when the live count has outgrown (or far
  /// undershot) the bucket ring: re-derive bucket count and width from the
  /// live population and redistribute. Deterministic — depends only on the
  /// live set, never on the iteration order of a hash container.
  void maybe_resize();
  void rebuild(std::size_t nbuckets);

  SimTime now_ = 0.0;
  std::function<void(SimTime, std::uint64_t)> fire_hook_;
  prof::Profiler* profiler_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;

  std::vector<Event> arena_;
  std::vector<std::uint32_t> free_;
  std::vector<Bucket> buckets_;
  double width_ = 1.0;
  std::uint64_t cursor_slot_ = 0;
  std::size_t live_ = 0;
};

}  // namespace ones::sim
