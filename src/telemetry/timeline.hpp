// Sim-time timeline sampler: step-function series recorded on change
// (DESIGN.md §9).
//
// Each named series is a right-continuous step function of simulated time:
// `record(id, t, v)` appends a point only when the value differs from the
// series' last value (or on its first observation), so an unchanged gauge
// costs one comparison, not one row.
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
  /// point when the value changed (or first call for the series). `t` must
  /// be >= the largest t seen.
  void record(SeriesId id, double t, double value);

  struct Point {
    double t = 0.0;
    SeriesId series = 0;
    double value = 0.0;
  };

  /// All points in emission order (t is non-decreasing).
  const std::vector<Point>& points() const { return points_; }
  const std::string& name(SeriesId id) const;

 private:
  double last_t_ = 0.0;
  bool any_point_ = false;
  std::vector<std::string> names_;
  std::unordered_map<std::string, SeriesId> by_name_;
  std::vector<double> last_value_;
  std::vector<char> has_value_;
  std::vector<Point> points_;
};

}  // namespace ones::telemetry
