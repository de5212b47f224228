// Online training-progress predictor (paper §3.2.1, Eq. 6).
//
// ONES never predicts absolute job lengths (a weakness the paper calls out
// in prior work); it models each job's *training progress* rho in (0, 1) as
// a Beta random variable:
//
//     rho ~ Be(alpha, beta),
//     alpha = Y_processed / ||D||           (epochs already processed)
//     beta  = max(A x + b, 1)               (predicted epochs to process)
//
// where x = {||D||, L_initial, Y_processed, r_L, accuracy} are features
// observable from the job's live status. The regression (A, b) is refit
// every time a job completes, by maximizing the Beta log-likelihood of data
// points uniformly sampled from completed jobs' epoch logs (the paper keeps
// the training set bounded to control fitting time and overfitting — we use
// reservoir sampling). Both alpha and beta are thresholded at 1 so the
// distribution stays unimodal.
//
// From the distribution, the remaining workload follows Eq. 7:
//     Y_remaining = Y_processed * (1/rho - 1).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "prof/profiler.hpp"
#include "sched/scheduler.hpp"
#include "stats/beta.hpp"
#include "telemetry/registry.hpp"

namespace ones::predict {

struct PredictorConfig {
  std::size_t max_training_points = 512;  ///< reservoir capacity
  std::size_t points_per_job = 16;        ///< samples drawn from one job's log
  double ridge_lambda = 1.0;              ///< regularization of the LS warm start
  int likelihood_steps = 200;             ///< gradient-ascent refinement steps
  double learning_rate = 0.05;
  double prior_total_epochs = 30.0;       ///< fallback before any completion
  std::uint64_t seed = 1234;
};

/// Number of predictor features (incl. bias term).
inline constexpr std::size_t kFeatureDim = 6;
using Features = std::array<double, kFeatureDim>;

/// One training datum: features at a historical moment of a completed job
/// plus the ground truth known in hindsight.
struct TrainingPoint {
  Features features{};            ///< normalized feature vector incl. bias
  double epochs_processed = 0.0;  ///< alpha at that moment
  /// log(1 - rho) of the true progress rho in (0, 1): the fit's per-point
  /// constant, taken once at ingestion.
  double log_unprogress = 0.0;
  double true_epochs_remaining = 0.0;
};

class ProgressPredictor {
 public:
  explicit ProgressPredictor(const PredictorConfig& config = {});

  static constexpr std::size_t kFeatureDim = predict::kFeatureDim;

  /// Extract the normalized feature vector from a job's live status.
  static Features features_of(const sched::JobView& job);

  /// Ingest a completed job: uniformly sample points from its epoch log into
  /// the bounded training set and refit the regression.
  void observe_completed_job(const sched::JobView& job);

  /// Predict the progress distribution Be(alpha, beta) of an in-flight job.
  stats::BetaDistribution predict(const sched::JobView& job) const;

  /// Expected remaining workload E[Y_processed * (1/rho - 1)] approximated at
  /// the distribution mean (convenience for deterministic consumers).
  double expected_remaining_samples(const sched::JobView& job) const;

  bool trained() const { return trained_; }
  std::size_t training_points() const { return points_.size(); }
  const std::vector<double>& weights() const { return weights_; }

  /// Refit from the current training set (called by observe_completed_job;
  /// public for tests).
  void fit();

  /// Optional metrics registry (not owned; null — the default — disables
  /// instrumentation). Records `predict_refits_total` and the online
  /// `predict_mae_epochs` gauge: before each refit, the *current* model is
  /// scored against the fresh ground-truth points it is about to ingest,
  /// so the gauge tracks true out-of-sample error. Never affects predictions.
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Optional host-time profiler (not owned; null disables the span site).
  /// Each refit runs under a `predict.fit` span (DESIGN.md §14); never
  /// affects predictions.
  void set_profiler(prof::Profiler* profiler) { profiler_ = profiler; }

 private:
  void add_point(TrainingPoint point);

  PredictorConfig config_;
  std::vector<TrainingPoint> points_;
  std::size_t points_seen_ = 0;  ///< total offered (for reservoir sampling)
  std::vector<double> weights_;
  bool trained_ = false;
  double mean_total_epochs_ = 0.0;
  std::size_t completed_jobs_ = 0;
  Rng rng_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  prof::Profiler* profiler_ = nullptr;
};

}  // namespace ones::predict
