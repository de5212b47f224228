// Small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/expect.hpp"

namespace ones {

/// Integer ceiling division for non-negative operands.
inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  ONES_EXPECT(a >= 0 && b > 0);
  return (a + b - 1) / b;
}

/// Streaming mean/variance (Welford).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  std::int64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear interpolation quantile of an unsorted sample (copies + sorts).
/// q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  ONES_EXPECT(!v.empty());
  ONES_EXPECT(q >= 0.0 && q <= 1.0);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double mean_of(const std::vector<double>& v) {
  ONES_EXPECT(!v.empty());
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace ones
