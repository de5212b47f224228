// Sim-time metrics registry: named counters, gauges and fixed-bucket
// histograms (DESIGN.md §9).
//
// The registry is the run-scoped observability substrate that sits between
// the end-of-run aggregates in `MetricsCollector` and the full event stream
// in `src/trace`. Instrumented modules (the sim driver, schedulers, the
// elastic protocol, the predictor, the evolutionary search) hold a plain
// `MetricsRegistry*` that defaults to null; every emission site is guarded
// by a null check, so metrics disabled — the default — costs one predictable
// branch and nothing else, exactly like the `trace::TraceSink` contract.
//
// Determinism rules:
//  * Every instrument is a pure function of the (deterministic) simulation,
//    so the file exporters emit it byte-identically for any `--threads`
//    value. Host wall-clock never enters the registry: decision latency and
//    every other host time come from the `prof` spans (DESIGN.md §14).
//  * The registry pointer is NOT part of the orchestrator cache key:
//    attaching one must never change a simulation result.
//
// Naming convention: `<module>_<metric>[_<unit>][_total]` — e.g.
// `sim_queue_depth`, `elastic_overhead_seconds_total`. `_total` marks
// counters, following the Prometheus style the text exporter emits.
//
// Thread safety: none needed or provided. Each simulated run owns its
// registry on one thread (the same ownership model as `TraceSink`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/timeline.hpp"

namespace ones::telemetry {

/// Monotonically increasing sum. `value()` is a double so counters can
/// accumulate fractional quantities (overhead seconds) as well as counts.
class Counter {
 public:
  /// Add `delta` >= 0 (ONES_EXPECT).
  void add(double delta = 1.0);
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Buckets are defined by strictly increasing upper
/// bounds (Prometheus `le` semantics: an observation lands in the first
/// bucket whose bound is >= the value); an implicit +Inf bucket catches the
/// overflow. Bounds are fixed at creation, so two runs of the same spec
/// produce bucket-identical histograms.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing (ONES_EXPECT).
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  ///< 0 when empty
  double max() const { return max_; }  ///< 0 when empty
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() = overflow.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Quantile estimate for q in [0, 1]: linear interpolation inside the
  /// bucket containing the target rank (lower edge 0 for the first bucket,
  /// `max()` caps the overflow bucket). Returns 0 on an empty histogram.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 entries
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Owns every instrument of one run plus the sim-time timeline sampler.
/// Instruments are created on first request and live as long as the
/// registry; re-requesting a name returns the same instrument (and throws
/// via ONES_EXPECT if the kind or histogram bounds differ — a name may not
/// alias two meanings).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Lookup without creation; nullptr when absent or a different kind.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;

  /// Convenience: a named counter's value, 0.0 when absent.
  double counter_value(const std::string& name) const;
  /// Convenience: a named gauge's value, 0.0 when absent.
  double gauge_value(const std::string& name) const;

  TimelineSampler& timeline() { return timeline_; }
  const TimelineSampler& timeline() const { return timeline_; }

  enum class Kind { Counter, Gauge, Histogram };

  struct Entry {
    Kind kind = Kind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Name-sorted instrument map (std::map), for deterministic export order
  /// regardless of creation order.
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  Entry& entry_for(const std::string& name, Kind kind);

  std::map<std::string, Entry> entries_;
  TimelineSampler timeline_;
};

}  // namespace ones::telemetry
