// Tiresias baseline (Gu et al., NSDI'19): Discretized 2D Least-Attained-
// Service scheduling.
//
// Tiresias assumes job lengths cannot be known in advance and prioritizes by
// *attained service* (requested GPUs x executed time): jobs that have
// consumed little service sit in high-priority queues; service accumulation
// demotes a job through a fixed set of discretized queues (avoiding
// continuous-priority preemption churn). Within a queue, jobs run in FIFO
// order. Preemption is allowed; job size is fixed at submission (Table 3:
// no elastic job size, no elastic batch size). There is no STARVE-FREE
// promotion: a demoted job waits in its queue.
#pragma once

#include <vector>

#include "sched/scheduler.hpp"

namespace ones::sched {

struct TiresiasConfig {
  /// Attained-service thresholds (GPU-seconds) between consecutive queues.
  /// A job in queue i has service < thresholds[i]; the last queue is
  /// unbounded. Calibrated to the trace's service scale.
  std::vector<double> queue_thresholds = {900.0, 7200.0};
};

class TiresiasScheduler : public Scheduler {
 public:
  explicit TiresiasScheduler(const TiresiasConfig& config = {}) : config_(config) {}

  std::string name() const override { return "Tiresias"; }
  ScalingMechanism mechanism() const override { return ScalingMechanism::Checkpoint; }

  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override;

  /// Queue index a job currently occupies (exposed for tests).
  int queue_of(const JobView& job) const;

 private:
  TiresiasConfig config_;
};

}  // namespace ones::sched
