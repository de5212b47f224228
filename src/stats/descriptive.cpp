#include "stats/descriptive.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/math_util.hpp"

namespace ones::stats {

BoxStats box_stats(std::vector<double> sample) {
  ONES_EXPECT(!sample.empty());
  std::sort(sample.begin(), sample.end());
  BoxStats b;
  b.n = sample.size();
  b.min = sample.front();
  b.max = sample.back();
  b.q1 = quantile(sample, 0.25);
  b.median = quantile(sample, 0.5);
  b.q3 = quantile(sample, 0.75);
  b.mean = mean_of(sample);

  const double iqr = b.q3 - b.q1;
  const double lo_fence = b.q1 - 1.5 * iqr;
  const double hi_fence = b.q3 + 1.5 * iqr;
  b.whisker_lo = b.max;
  b.whisker_hi = b.min;
  for (double v : sample) {
    if (v >= lo_fence && v < b.whisker_lo) b.whisker_lo = v;
    if (v <= hi_fence && v > b.whisker_hi) b.whisker_hi = v;
    if (v < lo_fence || v > hi_fence) b.outliers.push_back(v);
  }
  return b;
}

double Ecdf::at(double value) const {
  if (x.empty()) return 0.0;
  const auto it = std::upper_bound(x.begin(), x.end(), value);
  if (it == x.begin()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(it - x.begin()) - 1;
  return f[idx];
}

Ecdf ecdf(std::vector<double> sample) {
  ONES_EXPECT(!sample.empty());
  std::sort(sample.begin(), sample.end());
  Ecdf e;
  e.x = std::move(sample);
  e.f.resize(e.x.size());
  const double n = static_cast<double>(e.x.size());
  for (std::size_t i = 0; i < e.x.size(); ++i) {
    e.f[i] = static_cast<double>(i + 1) / n;
  }
  return e;
}

}  // namespace ones::stats
