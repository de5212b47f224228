// Parameterized property sweeps over the performance/convergence substrate:
// for EVERY task profile in the catalog, the throughput model and the
// training dynamics must satisfy the structural properties the schedulers
// rely on. A violation for any single model silently distorts scheduling
// comparisons, so these are swept exhaustively.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "model/convergence.hpp"
#include "model/task.hpp"
#include "model/throughput.hpp"

namespace ones::model {
namespace {

cluster::LinkProfile nvlink() { return {130.0e9, 5e-6}; }
cluster::LinkProfile infiniband() { return {12.0e9, 2.5e-5}; }

class PerProfile : public testing::TestWithParam<std::string> {
 protected:
  const TaskProfile& profile() const { return profile_by_name(GetParam()); }
  int base_batch() const {
    return std::min(profile().b_ref, profile().max_local_batch);
  }
};

std::string profile_name(const testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (auto& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

// ---- throughput model properties ----

TEST_P(PerProfile, StepTimeIsMonotoneInBatch) {
  const auto& p = profile();
  double prev = 0.0;
  for (int b = 1; b <= p.max_local_batch; b *= 2) {
    const double t = step_time_even_s(p, b, 1, nvlink());
    EXPECT_GE(t, prev) << "batch " << b;
    prev = t;
  }
}

TEST_P(PerProfile, ThroughputNeverNegativeAndBounded) {
  const auto& p = profile();
  // Physical upper bound: one sample cannot take less than t_sample_s.
  const double x_max = 1.0 / p.t_sample_s;
  for (int workers : {1, 2, 4, 8, 16}) {
    const int batch = base_batch() * workers;
    const double x = throughput_even_sps(p, batch, workers,
                                         workers <= 4 ? nvlink() : infiniband());
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, x_max * workers * 1.0001)
        << p.name << " at " << workers << " workers";
  }
}

TEST_P(PerProfile, SlowerLinkNeverSpeedsUpAStep) {
  const auto& p = profile();
  for (int workers : {2, 4, 8}) {
    const int batch = std::max(base_batch(), workers);
    const double fast = step_time_even_s(p, batch, workers, nvlink());
    const double slow = step_time_even_s(p, batch, workers, infiniband());
    EXPECT_LE(fast, slow + 1e-12) << p.name << " @ " << workers;
  }
}

TEST_P(PerProfile, ElasticScalingBeatsFixedAtEightWorkers) {
  // The core Fig 2 relation must hold for every model: at 8 workers, the
  // elastic batch (B = base * 8) yields strictly more throughput than the
  // fixed single-GPU batch split 8 ways.
  const auto& p = profile();
  const int base = base_batch();
  if (base < 8) GTEST_SKIP() << "base batch too small to split 8 ways";
  const double fixed = throughput_even_sps(p, base, 8, infiniband());
  const double elastic = throughput_even_sps(p, base * 8, 8, infiniband());
  EXPECT_GT(elastic, fixed) << p.name;
}

TEST_P(PerProfile, StragglerGatesTheStep) {
  // A lopsided split can never be faster than the even split of the same
  // total batch.
  const auto& p = profile();
  const int b = std::min(2 * base_batch(), 2 * p.max_local_batch);
  if (b / 2 + b / 4 < 1 || b / 2 > p.max_local_batch) GTEST_SKIP();
  // Two workers: the step reads only the larger of their batches.
  const double even = step_time_shape_s(p, 2, b / 2, nvlink());
  const double skewed = step_time_shape_s(p, 2, b / 2 + b / 4, nvlink());
  EXPECT_LE(even, skewed + 1e-12) << p.name;
}

// ---- convergence dynamics properties ----

TEST_P(PerProfile, ConvergesAtReferenceBatchWithinBudget) {
  const auto& p = profile();
  ConvergenceConfig cfg;
  cfg.accuracy_noise = 0.0;
  TrainDynamics d(p, 20000, cfg, 1);
  int epochs = 0;
  while (!d.converged() && epochs < 1000) {
    d.advance(p.b_ref, 20000);
    ++epochs;
  }
  EXPECT_TRUE(d.converged()) << p.name;
  EXPECT_EQ(epochs, static_cast<int>(p.epochs_to_target_ref) + cfg.patience_epochs - 1)
      << p.name;
}

TEST_P(PerProfile, EfficiencyIsMonotoneDecreasingInBatch) {
  const auto& p = profile();
  ConvergenceConfig cfg;
  TrainDynamics d(p, 20000, cfg, 1);
  double prev = 2.0;
  for (int b = 32; b <= 8192; b *= 2) {
    const double e = d.efficiency(b);
    EXPECT_LT(e, prev) << p.name << " at B=" << b;
    EXPECT_GT(e, 0.0);
    prev = e;
  }
}

TEST_P(PerProfile, AccuracyIsMonotoneInProgressWithoutDisturbance) {
  const auto& p = profile();
  ConvergenceConfig cfg;
  cfg.accuracy_noise = 0.0;
  cfg.patience_epochs = 1000;
  TrainDynamics d(p, 20000, cfg, 1);
  double prev_acc = -1.0, prev_loss = 1e9;
  for (int e = 0; e < 40; ++e) {
    d.advance(p.b_ref, 20000);
    EXPECT_GE(d.current_accuracy(), prev_acc) << p.name;
    EXPECT_LE(d.current_loss(), prev_loss + 1e-12) << p.name;
    prev_acc = d.current_accuracy();
    prev_loss = d.current_loss();
  }
  EXPECT_LE(prev_acc, p.accuracy_ceiling);
}

TEST_P(PerProfile, AbruptGrowthAlwaysCostsMoreThanGradual) {
  const auto& p = profile();
  ConvergenceConfig cfg;
  cfg.accuracy_noise = 0.0;
  const int hi = 16 * p.b_ref;

  TrainDynamics abrupt(p, 20000, cfg, 1);
  abrupt.on_batch_resize(p.b_ref, hi);
  TrainDynamics gradual(p, 20000, cfg, 1);
  int b = p.b_ref;
  while (b < hi) {
    gradual.on_batch_resize(b, 2 * b);
    b *= 2;
  }
  EXPECT_GT(abrupt.disturbance(), 0.0) << p.name;
  EXPECT_DOUBLE_EQ(gradual.disturbance(), 0.0) << p.name;
}

TEST_P(PerProfile, OracleRemainingIsMonotoneInBatch) {
  // More batch above the critical size => more raw samples needed.
  const auto& p = profile();
  ConvergenceConfig cfg;
  TrainDynamics d(p, 20000, cfg, 1);
  const double at_ref = d.oracle_remaining_samples(p.b_ref);
  const double at_4x = d.oracle_remaining_samples(4 * p.b_ref);
  EXPECT_GT(at_4x, at_ref) << p.name;
}

std::vector<std::string> all_profile_names() {
  std::vector<std::string> names;
  for (const auto& p : builtin_profiles()) names.push_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Catalog, PerProfile, testing::ValuesIn(all_profile_names()),
                         profile_name);

}  // namespace
}  // namespace ones::model
