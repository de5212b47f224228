// Sim-time timeline sampler: step-function series recorded on change or on
// deterministic sim-time ticks (DESIGN.md §9).
//
// Each named series is a right-continuous step function of simulated time:
// `record(id, t, v)` appends a point only when the value differs from the
// series' last value (or on its first observation), so an unchanged gauge
// costs one comparison, not one row. With a tick period set, every elapsed
// tick boundary additionally re-samples ALL series at the boundary time
// (with their pre-boundary values), which yields a uniformly-spaced export
// without ever touching the simulation engine — ticks are materialized
// lazily inside `record`/`advance`, never via engine events, so enabling
// them cannot perturb event ordering, sequence numbers or results.
//
// No wall-clock anywhere: `t` is simulated seconds and must be
// non-decreasing across ALL calls (the sim clock only moves forward).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

namespace ones::telemetry {

class TimelineSampler {
 public:
  using SeriesId = std::size_t;

  /// Intern `name`, creating the series on first use. Ids are dense and
  /// assigned in interning order.
  SeriesId series(const std::string& name);

  /// Record that `id`'s value is `value` from sim-time `t` on. Appends a
  /// point when the value changed (or first call for the series); elapsed
  /// tick boundaries are flushed first. `t` must be >= the largest t seen.
  void record(SeriesId id, double t, double value);

  /// Flush tick samples up to and including sim-time `t` without recording a
  /// change point (call once at run end so the export covers the full run).
  void advance(double t);

  /// Enable uniform re-sampling every `period_s` > 0 of sim-time (0 — the
  /// default — disables ticks). Must be set before the first record.
  void set_tick_period(double period_s);

  struct Point {
    double t = 0.0;
    SeriesId series = 0;
    double value = 0.0;
  };

  /// All points in emission order (t is non-decreasing).
  const std::vector<Point>& points() const { return points_; }
  const std::string& name(SeriesId id) const;

 private:
  void flush_ticks(double t);

  double tick_period_ = 0.0;
  double next_tick_ = 0.0;
  double last_t_ = 0.0;
  bool any_point_ = false;
  std::vector<std::string> names_;
  std::unordered_map<std::string, SeriesId> by_name_;
  std::vector<double> last_value_;
  std::vector<char> has_value_;
  std::vector<Point> points_;
};

}  // namespace ones::telemetry
