// Unit tests for src/common: RNG determinism and distribution sanity,
// math utilities, the expectation macros, and atomic file writes.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace ones {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, GammaMomentsMatch) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gamma(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 6.0, 0.15);           // shape * scale
  EXPECT_NEAR(stats.variance(), 12.0, 0.8);       // shape * scale^2
}

TEST(Rng, GammaSmallShape) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.gamma(0.5, 1.0);
    ASSERT_GT(g, 0.0);
    stats.add(g);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
}

TEST(Rng, BetaMeanMatches) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double b = rng.beta(2.0, 6.0);
    ASSERT_GT(b, 0.0);
    ASSERT_LT(b, 1.0);
    stats.add(b);
  }
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(29);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(static_cast<double>(rng.poisson(3.0)));
  for (int i = 0; i < 20000; ++i) large.add(static_cast<double>(rng.poisson(100.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 0.5);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(31);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) counts[rng.weighted_index({1.0, 2.0, 7.0})]++;
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(37);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.weighted_index({0.0, 0.0, 0.0}));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, WeightedIndexRejectsNegative) {
  Rng rng(41);
  EXPECT_THROW(rng.weighted_index({1.0, -0.5}), std::logic_error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(47);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(MathUtil, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(MathUtil, QuantileInterpolates) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

TEST(MathUtil, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0, 6.0}), 4.0);
}

TEST(Expect, ThrowsWithMessage) {
  try {
    ONES_EXPECT_MSG(false, "specific detail");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("specific detail"), std::string::npos);
  }
}

TEST(Expect, PassesOnTrue) {
  EXPECT_NO_THROW(ONES_EXPECT(1 + 1 == 2));
}

namespace fs = std::filesystem;

/// A fresh, empty directory under the test temp root.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t entry_count(const fs::path& dir) {
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++entries;
  return entries;
}

TEST(AtomicFile, WritesWholeFileAndLeavesNoTempFile) {
  const fs::path dir = fresh_dir("atomic_file_whole");
  const fs::path path = dir / "out.txt";
  common::write_file_atomically(path.string(), [](std::ostream& out) { out << "first\n"; });
  common::write_file_atomically(path.string(), [](std::ostream& out) { out << "second\n"; });
  EXPECT_EQ(read_file(path), "second\n");
  EXPECT_EQ(entry_count(dir), 1u);
  fs::remove_all(dir);
}

TEST(AtomicFile, UnwritableDirectoryThrows) {
  const fs::path dir = fresh_dir("atomic_file_unwritable");
  // A regular file as the parent directory: opening fails even for root.
  const fs::path not_a_dir = dir / "plain_file";
  std::ofstream(not_a_dir) << "x";
  EXPECT_THROW(common::write_file_atomically((not_a_dir / "out.txt").string(),
                                             [](std::ostream& out) { out << "data"; }),
               std::runtime_error);
  EXPECT_EQ(entry_count(dir), 1u);
  fs::remove_all(dir);
}

TEST(AtomicFile, ConcurrentWritersLeaveOneCompleteFile) {
  const fs::path dir = fresh_dir("atomic_file_concurrent");
  const fs::path path = dir / "out.txt";
  const std::string a(1 << 18, 'a');
  const std::string b(1 << 18, 'b');
  const auto writer = [&path](const std::string& content) {
    for (int round = 0; round < 8; ++round) {
      common::write_file_atomically(path.string(), [&content](std::ostream& out) {
        for (std::size_t i = 0; i < content.size(); i += 4096) out << content.substr(i, 4096);
      });
    }
  };
  std::thread ta(writer, std::cref(a));
  std::thread tb(writer, std::cref(b));
  ta.join();
  tb.join();
  const std::string text = read_file(path);
  EXPECT_TRUE(text == a || text == b) << "interleaved or truncated content";
  EXPECT_EQ(entry_count(dir), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ones
