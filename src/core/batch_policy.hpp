// Dynamic batch-size limits R_j (paper §3.3.2, "Training Performance
// Control").
//
// ONES never lets the evolutionary search push a job's batch beyond a
// per-job limit R that moves with the job's lifecycle:
//
//  * Start:      on arrival the batch must fit a single GPU until the job
//                completes its warm-up.
//  * Resume:     a waiting job may ask for at most its pre-preemption batch;
//                each time a deployed schedule leaves it waiting, R halves
//                (reduces queuing time, prevents starvation).
//  * Scale-up:   a running job may double its limit after every epoch
//                (gradual growth avoids the Fig 13 loss spike).
//  * Scale-down: long-running jobs are penalized to prevent the Convoy
//                Effect:  R' = ceil(2R / ceil(sigma * T_processed + 1)),
//                with sigma = lambda, the average job arrival rate.
#pragma once

#include <vector>

#include "cluster/assignment.hpp"
#include "common/ids.hpp"
#include "sched/scheduler.hpp"

namespace ones::core {

struct BatchPolicyConfig {
  /// Convoy-effect factor sigma; 0 = auto (sigma_scale times the estimated
  /// arrival rate lambda; the paper suggests sigma = lambda).
  double sigma = 0.0;
  /// Scale applied to the estimated lambda when sigma = 0. Note a deviation
  /// from the paper here: its formula R' = ceil(2R / ceil(sigma*T + 1)) can
  /// never double (the inner ceil is >= 2 whenever T > 0), contradicting the
  /// stated Scale-up rule, so we read the denominator as floor(sigma*T) + 1;
  /// and with sigma = lambda at a contended load every job outlives 1/lambda
  /// almost immediately, so the default softens sigma.
  double sigma_scale = 0.0625;
  /// Epochs a job must complete before it may span multiple GPUs.
  int warmup_epochs = 1;
  /// Cap on R as a multiple of the model's critical batch size (beyond it
  /// the batch only hurts convergence, so exploring there is wasted work).
  double r_cap_multiple = 2.0;
  /// Floor on R as a fraction of the single-GPU reference configuration
  /// min(b_ref, max_local_batch). 1 (default) means Resume halving and the
  /// convoy penalty never push a job below its requested batch — shrinking
  /// further has no placement benefit and only slows training.
  int min_limit_divisor = 1;
};

class BatchLimitManager {
 public:
  explicit BatchLimitManager(const BatchPolicyConfig& config = {}) : config_(config) {}

  /// Start policy: R = reference batch clamped to one GPU.
  void on_job_arrival(const sched::JobView& job, double now);

  /// Scale-up + scale-down: called at the end of each epoch of a running
  /// job. Applies R' = ceil(2R / ceil(sigma*T_processed + 1)).
  void on_epoch_complete(const sched::JobView& job);

  /// Resume policy: invoked right after a schedule is deployed, with the set
  /// of jobs that asked for service but remained waiting — their R halves.
  void on_left_waiting(const sched::JobView& job);

  /// Remember the batch a job held when it lost its GPUs (Resume cap).
  void on_preempted(const sched::JobView& job, int batch_before);

  void on_completed(JobId job);

  /// Current limit R_j.
  int limit(const sched::JobView& job) const;

  /// Whether the job may span more than one GPU yet (Start policy).
  bool warmed_up(const sched::JobView& job) const;

  /// Estimated arrival rate lambda (jobs/s) from observed arrivals.
  double arrival_rate() const;

  double sigma() const {
    return config_.sigma > 0.0 ? config_.sigma : arrival_rate() * config_.sigma_scale;
  }

 private:
  int floor_limit(const sched::JobView& job) const;
  int cap_limit(const sched::JobView& job) const;
  /// Index of `job`'s limit in limits_; throws `no_limit` unless it has one.
  std::size_t limited(const sched::JobView& job, const char* no_limit) const;

  BatchPolicyConfig config_;
  std::vector<int> limits_;  ///< R_j by JobId; 0 = none (not arrived, or completed)
  double first_arrival_ = -1.0;
  double last_arrival_ = -1.0;
  std::size_t arrivals_ = 0;
};

}  // namespace ones::core
