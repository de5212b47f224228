// Optimus baseline (Peng et al., EuroSys'18), adapted to all-reduce training
// as in the paper's evaluation (worker counts only, no parameter servers).
//
// Optimus reschedules the whole cluster every 10 minutes. Each round it
//  1. predicts every job's remaining epochs by fitting the convergence curve
//     observed so far (we fit 1/(1 - accuracy) = a*k + b, the reciprocal
//     form Optimus uses for loss curves, and extrapolate to the target
//     accuracy plus the convergence-confirmation tail),
//  2. gives every job its minimum feasible worker count (shortest predicted
//     remaining time first, so the fairness floor degrades gracefully when
//     over-subscribed), and
//  3. greedily adds one GPU at a time to the job with the largest marginal
//     reduction in predicted remaining time, until the cluster is full or no
//     job benefits.
//
// Job batch sizes stay fixed at submission values (Table 3: elastic job
// size, no elastic batch size); re-configurations use checkpoint migration.
#pragma once

#include "sched/scheduler.hpp"

namespace ones::sched {

class OptimusScheduler : public Scheduler {
 public:
  std::string name() const override { return "Optimus"; }
  ScalingMechanism mechanism() const override { return ScalingMechanism::Checkpoint; }
  double period_s() const override;

  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override;

  /// Predicted remaining epochs for a job (exposed for tests).
  double predict_remaining_epochs(const JobView& job) const;
};

}  // namespace ones::sched
