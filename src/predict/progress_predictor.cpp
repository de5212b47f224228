#include "predict/progress_predictor.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "stats/solve.hpp"

namespace ones::predict {

ProgressPredictor::ProgressPredictor(const PredictorConfig& config)
    : config_(config), weights_(kFeatureDim, 0.0), rng_(config.seed) {}

Features ProgressPredictor::features_of(const sched::JobView& job) {
  const double d = job.dataset_size();
  const double init_loss = std::max(job.init_loss, 1e-6);
  const double loss = job.epochs_completed > 0 ? job.train_loss : init_loss;
  const double r_loss = 1.0 - loss / init_loss;  // loss improvement ratio
  const double acc = job.epochs_completed > 0 ? job.val_accuracy : 0.0;
  return {
      d / 1e4,                        // ||D|| (10k-sample units)
      init_loss,                      // L_initial
      job.samples_processed / d,      // Y_processed (epoch units)
      r_loss,                         // r_L
      acc,                            // validation accuracy
      1.0,                            // bias
  };
}

void ProgressPredictor::add_point(TrainingPoint point) {
  ++points_seen_;
  if (points_.size() < config_.max_training_points) {
    points_.push_back(std::move(point));
    return;
  }
  // Reservoir sampling keeps the training set a uniform sample of all points
  // ever offered (the paper's bounded uniformly-sampled dataset).
  const std::size_t slot = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(points_seen_) - 1));
  if (slot < points_.size()) points_[slot] = std::move(point);
}

void ProgressPredictor::observe_completed_job(const sched::JobView& job) {
  ONES_EXPECT_MSG(job.status == sched::JobStatus::Completed,
                  "observe_completed_job requires a completed job");
  const auto& log = job.epoch_log;
  if (log.empty()) return;

  const double total_epochs = static_cast<double>(log.size());
  const double total_samples = log.back().samples_processed;
  if (total_samples <= 0.0) return;

  completed_jobs_ += 1;
  mean_total_epochs_ +=
      (total_epochs - mean_total_epochs_) / static_cast<double>(completed_jobs_);

  // Uniformly sample historical moments of this job.
  const std::size_t want = std::min(config_.points_per_job, log.size());
  std::vector<std::size_t> idx(log.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng_.shuffle(idx);
  for (std::size_t k = 0; k < want; ++k) {
    const std::size_t i = idx[k];
    const auto& e = log[i];
    // Reconstruct the live view at that moment.
    sched::JobView past = job;
    past.samples_processed = e.samples_processed;
    past.train_loss = e.train_loss;
    past.val_accuracy = e.val_accuracy;
    past.epochs_completed = static_cast<int>(i + 1);

    TrainingPoint p;
    p.features = features_of(past);
    p.epochs_processed = std::max(e.samples_processed / job.dataset_size(), 1.0);
    const double true_progress =
        std::clamp(e.samples_processed / total_samples, 1e-4, 1.0 - 1e-4);
    p.log_unprogress = std::log(1.0 - true_progress);
    p.true_epochs_remaining =
        std::max(total_epochs - static_cast<double>(i + 1), 0.5);
    if (metrics_ != nullptr) {
      // Score the *current* model on this fresh ground truth before it is
      // ingested: the Beta's beta parameter is the predicted epochs remaining.
      const double predicted = predict(past).beta();
      auto& err_sum = metrics_->counter("predict_abs_error_epochs_total");
      auto& err_n = metrics_->counter("predict_error_samples_total");
      err_sum.add(std::abs(predicted - p.true_epochs_remaining));
      err_n.add();
      metrics_->gauge("predict_mae_epochs").set(err_sum.value() / err_n.value());
    }
    add_point(std::move(p));
  }

  fit();
}

void ProgressPredictor::fit() {
  const prof::Scope span(profiler_, "predict.fit");
  if (points_.size() < 8) return;  // not enough evidence yet
  const std::size_t n = points_.size();

  // Warm start: ridge least squares on the raw epochs-remaining targets.
  stats::Matrix x(n, kFeatureDim);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < kFeatureDim; ++f) x.at(i, f) = points_[i].features[f];
    y[i] = points_[i].true_epochs_remaining;
  }
  weights_ = stats::ridge_regression(x, y, config_.ridge_lambda);

  // Refinement: maximize the Beta log marginal likelihood
  //   sum_i log Be(rho_i; alpha_i, beta_i(w)),  beta_i = max(w . x_i, 1),
  // by gradient ascent. d logpdf / d beta = log(1-rho) - psi(beta) +
  // psi(alpha+beta); the clamp at 1 contributes zero gradient.
  Features grad;
  for (int step = 0; step < config_.likelihood_steps; ++step) {
    grad.fill(0.0);
    for (const auto& p : points_) {
      double z = 0.0;
      for (std::size_t f = 0; f < kFeatureDim; ++f) z += weights_[f] * p.features[f];
      if (z <= 1.0) continue;  // clamped: no gradient flows
      const double alpha = p.epochs_processed;
      const double dbeta = p.log_unprogress - stats::digamma(z) + stats::digamma(alpha + z);
      for (std::size_t f = 0; f < kFeatureDim; ++f) grad[f] += dbeta * p.features[f];
    }
    const double scale = config_.learning_rate / static_cast<double>(n);
    for (std::size_t f = 0; f < kFeatureDim; ++f) weights_[f] += scale * grad[f];
  }
  trained_ = true;
  if (metrics_ != nullptr) metrics_->counter("predict_refits_total").add();
}

stats::BetaDistribution ProgressPredictor::predict(const sched::JobView& job) const {
  const double alpha = std::max(job.samples_processed / job.dataset_size(), 1.0);
  double beta;
  if (trained_) {
    const auto x = features_of(job);
    double z = 0.0;
    for (std::size_t f = 0; f < kFeatureDim; ++f) z += weights_[f] * x[f];
    beta = std::max(z, 1.0);
  } else {
    const double prior =
        completed_jobs_ > 0 ? mean_total_epochs_ : config_.prior_total_epochs;
    beta = std::max(prior - alpha, 1.0);
  }
  return stats::BetaDistribution(alpha, beta);
}

double ProgressPredictor::expected_remaining_samples(const sched::JobView& job) const {
  const auto dist = predict(job);
  const double rho = std::clamp(dist.mean(), 1e-4, 1.0 - 1e-4);
  const double processed = std::max(job.samples_processed, 1.0);
  return processed * (1.0 / rho - 1.0);
}

}  // namespace ones::predict
