// Descriptive statistics used by the evaluation harness: box-plot summaries
// (Figure 15 b/e style) and empirical CDFs (Figure 15 g/h/i style).
#pragma once

#include <vector>

namespace ones::stats {

/// Five-number box-plot summary with Tukey whiskers (1.5 IQR) and outliers.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double whisker_lo = 0.0;  ///< smallest sample >= q1 - 1.5*IQR
  double whisker_hi = 0.0;  ///< largest  sample <= q3 + 1.5*IQR
  double mean = 0.0;
  std::size_t n = 0;
  std::vector<double> outliers;
};

BoxStats box_stats(std::vector<double> sample);

/// Empirical CDF: for each requested x, the fraction of samples <= x.
struct Ecdf {
  std::vector<double> x;  ///< sorted sample values
  std::vector<double> f;  ///< cumulative fraction at each x

  /// Fraction of samples <= value.
  double at(double value) const;
};

Ecdf ecdf(std::vector<double> sample);

}  // namespace ones::stats
