// Unit tests for src/stats: Beta distribution, digamma, linear solver,
// ridge regression, Wilcoxon tests, descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "stats/beta.hpp"
#include "stats/descriptive.hpp"
#include "stats/solve.hpp"
#include "stats/wilcoxon.hpp"

namespace ones::stats {
namespace {

TEST(BetaFn, MatchesKnownValues) {
  // B(1,1) = 1; B(2,3) = 1/12; B(0.5,0.5) = pi.
  EXPECT_NEAR(std::exp(log_beta_fn(1.0, 1.0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(log_beta_fn(2.0, 3.0)), 1.0 / 12.0, 1e-12);
  EXPECT_NEAR(std::exp(log_beta_fn(0.5, 0.5)), M_PI, 1e-10);
}

TEST(Digamma, MatchesKnownValues) {
  // psi(1) = -gamma (Euler-Mascheroni); psi(0.5) = -gamma - 2 ln 2.
  constexpr double kEuler = 0.5772156649015328606;
  EXPECT_NEAR(digamma(1.0), -kEuler, 1e-10);
  EXPECT_NEAR(digamma(0.5), -kEuler - 2.0 * std::log(2.0), 1e-10);
  // Recurrence: psi(x+1) = psi(x) + 1/x.
  EXPECT_NEAR(digamma(4.7), digamma(3.7) + 1.0 / 3.7, 1e-10);
}

TEST(IncompleteBeta, BoundaryValues) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, UniformCaseIsIdentity) {
  // Be(1,1) is uniform: I_x(1,1) = x.
  for (double x : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(IncompleteBeta, SymmetryIdentity) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(incomplete_beta(2.5, 4.0, 0.3),
              1.0 - incomplete_beta(4.0, 2.5, 0.7), 1e-10);
}

TEST(BetaDistribution, MomentsMatchClosedForm) {
  BetaDistribution d(3.0, 7.0);
  EXPECT_NEAR(d.mean(), 0.3, 1e-12);
  EXPECT_NEAR(d.variance(), 3.0 * 7.0 / (100.0 * 11.0), 1e-12);
  EXPECT_NEAR(d.mode(), 2.0 / 8.0, 1e-12);
}

TEST(BetaDistribution, PdfIntegratesToOne) {
  BetaDistribution d(2.5, 5.0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = (i + 0.5) / n;
    sum += d.pdf(x) / n;
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(BetaDistribution, CdfQuantileRoundTrip) {
  BetaDistribution d(4.0, 2.0);
  for (double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-8);
  }
}

TEST(BetaDistribution, CredibleIntervalCoverage) {
  BetaDistribution d(5.0, 5.0);
  const auto [lo, hi] = d.credible_interval(0.9);
  EXPECT_NEAR(d.cdf(hi) - d.cdf(lo), 0.9, 1e-6);
  EXPECT_LT(lo, d.mean());
  EXPECT_GT(hi, d.mean());
}

TEST(BetaDistribution, SampleMomentsMatch) {
  BetaDistribution d(2.0, 8.0);
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(d.sample(rng));
  EXPECT_NEAR(stats.mean(), d.mean(), 0.005);
  EXPECT_NEAR(stats.variance(), d.variance(), 0.002);
}

TEST(BetaDistribution, RejectsInvalidParameters) {
  EXPECT_THROW(BetaDistribution(0.0, 1.0), std::logic_error);
  EXPECT_THROW(BetaDistribution(1.0, -2.0), std::logic_error);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  const Matrix i3 = Matrix::identity(3);
  const Matrix prod = a * i3;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod.at(r, c), a.at(r, c));
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a(2, 3);
  a.at(0, 2) = 5.0;
  a.at(1, 0) = -1.0;
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), -1.0);
}

TEST(SolveLinear, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3].
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const auto x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, NeedsPivoting) {
  // Zero on the diagonal requires a row swap.
  Matrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  const auto x = solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, ThrowsOnSingular) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_THROW(solve_linear(a, {1.0, 2.0}), std::logic_error);
}

TEST(RidgeRegression, RecoversExactLinearModel) {
  // y = 3 x1 - 2 x2 + 1 with no noise and lambda = 0.
  Rng rng(5);
  const std::size_t n = 50;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x1 = rng.uniform(-1, 1), x2 = rng.uniform(-1, 1);
    x.at(i, 0) = x1;
    x.at(i, 1) = x2;
    x.at(i, 2) = 1.0;
    y[i] = 3.0 * x1 - 2.0 * x2 + 1.0;
  }
  const auto w = ridge_regression(x, y, 0.0);
  EXPECT_NEAR(w[0], 3.0, 1e-9);
  EXPECT_NEAR(w[1], -2.0, 1e-9);
  EXPECT_NEAR(w[2], 1.0, 1e-9);
}

TEST(RidgeRegression, LambdaShrinksWeights) {
  Rng rng(6);
  const std::size_t n = 40;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x1 = rng.uniform(-1, 1);
    x.at(i, 0) = x1;
    x.at(i, 1) = 1.0;
    y[i] = 5.0 * x1;
  }
  const auto w0 = ridge_regression(x, y, 0.0);
  const auto w1 = ridge_regression(x, y, 100.0);
  EXPECT_LT(std::fabs(w1[0]), std::fabs(w0[0]));
}

TEST(Wilcoxon, SignedRankDetectsConsistentShift) {
  Rng rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    const double base = rng.uniform(10, 100);
    x.push_back(base);            // "ONES": consistently smaller
    y.push_back(base * 1.5 + 1);  // baseline
  }
  const auto res = wilcoxon_signed_rank(x, y);
  EXPECT_LT(res.p_two_sided, 1e-6);
  EXPECT_LT(res.p_less, 1e-6);      // x < y strongly supported
  EXPECT_GT(res.p_greater, 0.999);  // the paper's "one-sided negative" view
}

TEST(Wilcoxon, SignedRankNoDifference) {
  Rng rng(8);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(rng.normal(50, 5));
    y.push_back(rng.normal(50, 5));
  }
  const auto res = wilcoxon_signed_rank(x, y);
  EXPECT_GT(res.p_two_sided, 0.05);
}

TEST(Wilcoxon, SignedRankDropsZeroDifferences) {
  const std::vector<double> x = {1, 2, 3, 4, 10};
  const std::vector<double> y = {1, 2, 3, 4, 5};
  const auto res = wilcoxon_signed_rank(x, y);
  EXPECT_EQ(res.n_effective, 1u);
}

TEST(Wilcoxon, SignedRankRequiresPairs) {
  EXPECT_THROW(wilcoxon_signed_rank({1.0, 2.0}, {1.0}), std::logic_error);
}

TEST(Wilcoxon, RankSumDetectsShift) {
  Rng rng(9);
  std::vector<double> x, y;
  for (int i = 0; i < 80; ++i) x.push_back(rng.normal(10, 2));
  for (int i = 0; i < 90; ++i) y.push_back(rng.normal(14, 2));
  const auto res = wilcoxon_rank_sum(x, y);
  EXPECT_LT(res.p_two_sided, 1e-6);
  EXPECT_LT(res.p_less, 1e-6);
}

TEST(Wilcoxon, RankSumSymmetric) {
  Rng rng(10);
  std::vector<double> x, y;
  for (int i = 0; i < 60; ++i) x.push_back(rng.normal(0, 1));
  for (int i = 0; i < 60; ++i) y.push_back(rng.normal(0, 1));
  const auto ab = wilcoxon_rank_sum(x, y);
  const auto ba = wilcoxon_rank_sum(y, x);
  EXPECT_NEAR(ab.p_two_sided, ba.p_two_sided, 1e-9);
  EXPECT_NEAR(ab.p_less, ba.p_greater, 1e-9);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(Descriptive, BoxStatsQuartiles) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(static_cast<double>(i));
  const auto b = box_stats(v);
  EXPECT_DOUBLE_EQ(b.median, 51.0);
  EXPECT_DOUBLE_EQ(b.q1, 26.0);
  EXPECT_DOUBLE_EQ(b.q3, 76.0);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 101.0);
  EXPECT_TRUE(b.outliers.empty());
}

TEST(Descriptive, BoxStatsFlagsOutliers) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 500};
  const auto b = box_stats(v);
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 500.0);
  EXPECT_LE(b.whisker_hi, 10.0);
}

TEST(Descriptive, EcdfMonotoneAndBounded) {
  const auto e = ecdf({5.0, 1.0, 3.0, 3.0, 9.0});
  EXPECT_TRUE(std::is_sorted(e.x.begin(), e.x.end()));
  EXPECT_TRUE(std::is_sorted(e.f.begin(), e.f.end()));
  EXPECT_DOUBLE_EQ(e.f.back(), 1.0);
  EXPECT_DOUBLE_EQ(e.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(e.at(3.0), 0.6);  // 3 of 5 samples <= 3
  EXPECT_DOUBLE_EQ(e.at(100.0), 1.0);
}

}  // namespace
}  // namespace ones::stats
