// Power-capped gang scheduler (energy baseline, after Gu et al.,
// "Energy-Efficient GPU Clusters Scheduling for Deep Learning": keep the
// cluster under a power budget and throttle admissions, trading queueing
// delay for peak draw and energy).
//
// FIFO-with-backfill admission under a cluster-wide watts budget, a fixed
// 70% of peak draw (every GPU busy plus all node base power): before
// starting a waiting job, project the cluster draw with the job placed
// (from energy::cluster_draw of the current schedule, the function the meter
// bills with, DESIGN.md §10) and admit only while the projection stays at or
// under the cap. Jobs keep their user-requested GPU count and batch; like the
// other non-elastic baselines there is no preemption, so the cap binds at
// admission time only. To guarantee progress, the first job onto an
// otherwise-empty cluster is always admitted even if it alone exceeds the cap.
#pragma once

#include "sched/scheduler.hpp"

namespace ones::sched {

class PowerCapScheduler : public Scheduler {
 public:
  std::string name() const override { return "PowerCap"; }
  ScalingMechanism mechanism() const override { return ScalingMechanism::Checkpoint; }

  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override;
};

}  // namespace ones::sched
