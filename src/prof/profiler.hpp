// Host-time profiler (DESIGN.md §14).
//
// Hierarchical wall-clock spans over the HOST cost of a run: engine
// pop/schedule/cancel, scheduler decision phases, evolution operator steps,
// predictor fits, orchestrator cache and export I/O. Strictly observability:
// the profiler follows the trace-sink contract (§8) — emitters hold a plain
// `prof::Profiler*` defaulting to null, every span costs one predictable
// branch when profiling is off, attaching a profiler must never change
// simulated results, and the profiler is deliberately NOT an orchestrator
// cache-key input.
//
// Aggregation is BY SPAN PATH — the '/'-joined chain of enclosing span
// names — never by thread or timestamp. Counts, durations and the per-span
// log2 latency histogram are exact uint64 sums (plus a max), so merging
// per-thread (or per-run) profiles is associative and commutative: the
// merged span paths and counts are bit-identical for any `--threads` value;
// only the nanosecond magnitudes are host noise.
//
// A Profiler instance is single-threaded (one per run / per pool worker,
// the MetricsRegistry ownership model); ProfileRollup merges many.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ones::prof {

/// Aggregated statistics of one span path. `self_ns` is total time minus
/// the time spent in enclosed (child) spans, saturated at zero. `buckets`
/// is a log2 latency histogram: bucket b counts spans whose duration has
/// bit width b, i.e. lies in [2^(b-1), 2^b) ns (bucket 0: 0 ns; the last
/// bucket also takes anything longer).
struct SpanStats {
  static constexpr std::size_t kBuckets = 64;

  std::string path;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kBuckets> buckets{};
};

class Profiler {
 public:
  /// Timeline events kept when `enable_timeline` is on with no explicit cap.
  static constexpr std::size_t kDefaultTimelineCap = std::size_t{1} << 17;

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Additionally record up to `max_events` individual (start, duration)
  /// span instances for the Perfetto export; further spans still aggregate
  /// but bump `timeline_dropped()`. Off by default: aggregation alone never
  /// retains per-instance data, so memory stays O(distinct span paths).
  void enable_timeline(std::size_t max_events = kDefaultTimelineCap);
  bool timeline_enabled() const { return timeline_cap_ > 0; }
  std::uint64_t timeline_dropped() const { return dropped_; }

  /// Open a span named `name` under the currently-open span (Scope does
  /// this; call pairs must nest LIFO). Returns the span's node handle.
  /// `name` must not contain '/', the path separator.
  std::size_t enter(std::string_view name);
  /// Close the span opened by the matching `enter`; `start_ns` is the
  /// `now_ns()` reading taken right after that `enter`.
  void exit(std::size_t node, std::uint64_t start_ns);

  /// Monotonic host clock in nanoseconds. Wall-clock is allowed here ONLY
  /// because profiles are cosmetic observability output (stderr / side
  /// files), never a simulated quantity.
  static std::uint64_t now_ns();

  /// Aggregated spans sorted by path (deterministic order). The root
  /// pseudo-span is excluded.
  std::vector<SpanStats> stats() const;

  /// '/'-joined path of a node handle returned by `enter`.
  std::string path_of(std::size_t node) const;

  /// One retained span instance; times are relative to the profiler's
  /// construction (its epoch).
  struct TimelineEvent {
    std::size_t node = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };
  const std::vector<TimelineEvent>& timeline() const { return events_; }

 private:
  struct Node {
    std::string name;
    std::size_t parent = 0;
    /// Transparent comparator: hot-path lookup by string_view allocates
    /// nothing on a hit (every visit after a path's first).
    std::map<std::string, std::size_t, std::less<>> children;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, SpanStats::kBuckets> buckets{};
  };

  void append_stats(std::size_t node, const std::string& prefix,
                    std::vector<SpanStats>& out) const;

  std::vector<Node> nodes_;   ///< node 0 is the root pseudo-span
  std::size_t current_ = 0;   ///< innermost open span
  std::uint64_t epoch_ns_ = 0;
  std::size_t timeline_cap_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TimelineEvent> events_;
};

/// RAII span. A null profiler — the off-by-default state — makes both the
/// constructor and destructor a branch and nothing else: no clock read, no
/// allocation (asserted in tests/prof_test.cpp).
class Scope {
 public:
  Scope(Profiler* profiler, std::string_view name) : profiler_(profiler) {
    if (profiler_ != nullptr) {
      node_ = profiler_->enter(name);
      start_ns_ = Profiler::now_ns();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (profiler_ != nullptr) profiler_->exit(node_, start_ns_);
  }

 private:
  Profiler* profiler_;
  std::size_t node_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Order-independent merge of per-thread / per-run profiles, keyed by span
/// path. Integer sums (and the max of `max_ns`) make `add` associative and
/// commutative, which is the whole determinism argument for profiling under
/// the exp thread pool.
class ProfileRollup {
 public:
  void add(const Profiler& profiler) { add(profiler.stats()); }
  void add(const std::vector<SpanStats>& stats);

  /// Merged spans sorted by path.
  std::vector<SpanStats> stats() const;
  bool empty() const { return by_path_.empty(); }

 private:
  std::map<std::string, SpanStats> by_path_;
};

}  // namespace ones::prof
