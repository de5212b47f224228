// Unit tests for the online progress predictor (§3.2.1): feature
// extraction, reservoir-bounded training set, Beta-regression fitting and
// prediction quality on synthetic completed jobs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "predict/progress_predictor.hpp"

namespace ones::predict {
namespace {

// Build a synthetic completed job whose total epoch count is a simple
// function of its dataset size, so the regression has signal to learn.
sched::JobView synthetic_completed_job(JobId id, std::int64_t dataset, int total_epochs) {
  sched::JobView v;
  v.spec.id = id;
  v.spec.variant = {"ResNet18", "synthetic", dataset, 10};
  v.profile = &model::profile_by_name("ResNet18");
  v.status = sched::JobStatus::Completed;
  v.init_loss = v.profile->init_loss;
  for (int e = 1; e <= total_epochs; ++e) {
    const double frac = static_cast<double>(e) / total_epochs;
    sched::EpochLogEntry entry;
    entry.time_s = 10.0 * e;
    entry.samples_processed = static_cast<double>(dataset) * e;
    entry.train_loss = v.profile->final_loss +
                       (v.profile->init_loss - v.profile->final_loss) * std::exp(-3.0 * frac);
    entry.val_accuracy = 0.95 * (1.0 - std::exp(-2.5 * frac));
    entry.global_batch = 256;
    v.epoch_log.push_back(entry);
  }
  v.epochs_completed = total_epochs;
  v.samples_processed = v.epoch_log.back().samples_processed;
  v.train_loss = v.epoch_log.back().train_loss;
  v.val_accuracy = v.epoch_log.back().val_accuracy;
  return v;
}

sched::JobView in_flight_view(std::int64_t dataset, int epochs_done, int total_epochs) {
  auto v = synthetic_completed_job(0, dataset, total_epochs);
  v.status = sched::JobStatus::Running;
  v.epoch_log.resize(static_cast<std::size_t>(epochs_done));
  v.epochs_completed = epochs_done;
  v.samples_processed = static_cast<double>(dataset) * epochs_done;
  v.train_loss = v.epoch_log.empty() ? v.init_loss : v.epoch_log.back().train_loss;
  v.val_accuracy = v.epoch_log.empty() ? 0.0 : v.epoch_log.back().val_accuracy;
  return v;
}

TEST(Features, DimensionAndContent) {
  const auto v = in_flight_view(20000, 5, 25);
  const auto x = ProgressPredictor::features_of(v);
  ASSERT_EQ(x.size(), ProgressPredictor::kFeatureDim);
  EXPECT_DOUBLE_EQ(x[0], 2.0);  // ||D|| in 10k units
  EXPECT_DOUBLE_EQ(x[2], 5.0);  // epochs processed
  EXPECT_DOUBLE_EQ(x.back(), 1.0);  // bias
  EXPECT_GT(x[3], 0.0);  // loss improved
  EXPECT_GT(x[4], 0.0);  // accuracy observed
}

TEST(Features, FreshJobHasNeutralDynamicFeatures) {
  auto v = in_flight_view(20000, 0, 25);
  v.samples_processed = 0.0;
  const auto x = ProgressPredictor::features_of(v);
  EXPECT_DOUBLE_EQ(x[2], 0.0);
  EXPECT_DOUBLE_EQ(x[3], 0.0);
  EXPECT_DOUBLE_EQ(x[4], 0.0);
}

TEST(Predictor, UntrainedUsesPrior) {
  ProgressPredictor p;
  EXPECT_FALSE(p.trained());
  const auto v = in_flight_view(20000, 5, 25);
  const auto dist = p.predict(v);
  EXPECT_DOUBLE_EQ(dist.alpha(), 5.0);
  EXPECT_GE(dist.beta(), 1.0);
  EXPECT_GT(dist.mean(), 0.0);
  EXPECT_LT(dist.mean(), 1.0);
}

TEST(Predictor, AlphaThresholdedAtOne) {
  ProgressPredictor p;
  auto v = in_flight_view(20000, 0, 25);
  v.samples_processed = 100.0;  // far less than one epoch
  const auto dist = p.predict(v);
  EXPECT_DOUBLE_EQ(dist.alpha(), 1.0);  // the paper's >= 1 threshold
}

TEST(Predictor, TrainsAfterCompletions) {
  PredictorConfig cfg;
  ProgressPredictor p(cfg);
  for (JobId j = 0; j < 6; ++j) {
    p.observe_completed_job(synthetic_completed_job(j, 20000 + 1000 * j, 25));
  }
  EXPECT_TRUE(p.trained());
  EXPECT_GT(p.training_points(), 30u);
}

// The refit's arithmetic order is part of the contract: ONES's decisions
// read these weights through every prediction. Recorded with %a before the
// fit's buffers became fixed-size arrays; any drift in a low bit fails here.
TEST(ProgressPredictor, FitWeightsArePinnedBitForBit) {
  PredictorConfig cfg;
  cfg.max_training_points = 96;  // 192 points offered: the reservoir replaces some
  ProgressPredictor p(cfg);
  for (JobId j = 0; j < 12; ++j) {
    p.observe_completed_job(
        synthetic_completed_job(j, 10000 + 2500 * j, 10 + static_cast<int>(j % 5) * 6));
  }
  const std::vector<double> pinned = {
      0x1.1e55b3ba019ebp-3,  0x1.466216f373522p+3,  -0x1.592de0ea4655ap-5,
      -0x1.a7e0500bde455p+3, -0x1.f2150ef955b73p+3, 0x1.1bcfbae9f51e8p+2,
  };
  ASSERT_EQ(p.weights().size(), pinned.size());
  for (std::size_t f = 0; f < pinned.size(); ++f) {
    EXPECT_EQ(p.weights()[f], pinned[f]) << "weight " << f;
  }
}

TEST(Predictor, ReservoirIsBounded) {
  PredictorConfig cfg;
  cfg.max_training_points = 64;
  ProgressPredictor p(cfg);
  for (JobId j = 0; j < 30; ++j) {
    p.observe_completed_job(synthetic_completed_job(j, 20000, 25));
  }
  EXPECT_LE(p.training_points(), 64u);
}

TEST(Predictor, PredictionTracksTrueProgress) {
  // Train on jobs with a fixed total epoch count, then check that predicted
  // mean progress grows with epochs done and is roughly calibrated.
  ProgressPredictor p;
  for (JobId j = 0; j < 12; ++j) {
    p.observe_completed_job(synthetic_completed_job(j, 20000, 25));
  }
  ASSERT_TRUE(p.trained());

  double last_mean = 0.0;
  for (int done : {5, 10, 15, 20}) {
    const auto dist = p.predict(in_flight_view(20000, done, 25));
    const double mean = dist.mean();
    EXPECT_GT(mean, last_mean) << "predicted progress must grow";
    const double true_progress = static_cast<double>(done) / 25.0;
    EXPECT_NEAR(mean, true_progress, 0.2) << "at " << done << " epochs";
    last_mean = mean;
  }
}

TEST(Predictor, RemainingWorkloadFollowsEq7) {
  ProgressPredictor p;
  for (JobId j = 0; j < 10; ++j) {
    p.observe_completed_job(synthetic_completed_job(j, 20000, 25));
  }
  const auto v = in_flight_view(20000, 10, 25);
  const auto dist = p.predict(v);
  const double expected = v.samples_processed * (1.0 / dist.mean() - 1.0);
  EXPECT_NEAR(p.expected_remaining_samples(v), expected, expected * 0.01 + 1.0);
}

TEST(Predictor, RemainingWorkloadShrinksNearCompletion) {
  ProgressPredictor p;
  for (JobId j = 0; j < 10; ++j) {
    p.observe_completed_job(synthetic_completed_job(j, 20000, 25));
  }
  const double early = p.expected_remaining_samples(in_flight_view(20000, 3, 25));
  const double late = p.expected_remaining_samples(in_flight_view(20000, 22, 25));
  EXPECT_LT(late, early);
}

TEST(Predictor, BetaAlwaysAtLeastOne) {
  // Even with weights that would predict negative epochs remaining, the
  // paper's threshold keeps the distribution unimodal.
  ProgressPredictor p;
  for (JobId j = 0; j < 10; ++j) {
    p.observe_completed_job(synthetic_completed_job(j, 20000, 12));
  }
  const auto dist = p.predict(in_flight_view(20000, 40, 12));  // way past total
  EXPECT_GE(dist.beta(), 1.0);
}

TEST(Predictor, DistinguishesDatasetSizes) {
  // Jobs with bigger datasets were trained for more epochs; prediction for a
  // small-dataset job should see higher progress at the same epoch count.
  ProgressPredictor p;
  for (JobId j = 0; j < 8; ++j) {
    p.observe_completed_job(synthetic_completed_job(2 * j, 8000, 12));
    p.observe_completed_job(synthetic_completed_job(2 * j + 1, 40000, 30));
  }
  const auto small = p.predict(in_flight_view(8000, 6, 12));
  const auto large = p.predict(in_flight_view(40000, 6, 30));
  EXPECT_GT(small.mean(), large.mean());
}

TEST(Predictor, IgnoresJobsWithoutLogs) {
  ProgressPredictor p;
  sched::JobView v;
  v.spec.id = 1;
  v.spec.variant = {"ResNet18", "x", 1000, 10};
  v.profile = &model::profile_by_name("ResNet18");
  v.status = sched::JobStatus::Completed;
  EXPECT_NO_THROW(p.observe_completed_job(v));
  EXPECT_EQ(p.training_points(), 0u);
}

TEST(Predictor, RequiresCompletedStatus) {
  ProgressPredictor p;
  auto v = in_flight_view(20000, 5, 25);
  EXPECT_THROW(p.observe_completed_job(v), std::logic_error);
}

}  // namespace
}  // namespace ones::predict
