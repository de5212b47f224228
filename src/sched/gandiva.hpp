// Gandiva-style time-slicing baseline (Xiao et al., OSDI'18; paper §5).
//
// Gandiva over-subscribes the cluster by time-slicing GPUs across jobs with
// cheap suspend-resume, and introspectively migrates jobs to improve
// locality. This simplified reimplementation keeps the two defining
// behaviours:
//
//  * round-robin time slicing: every quantum, jobs that have consumed a
//    full slice rotate out in favour of the longest-waiting jobs (fixed
//    user-requested sizes, like Tiresias);
//  * introspective packing: when a rotation happens anyway, workers are
//    re-placed with the locality-aware placement helper.
//
// Suspend/resume in Gandiva is a fast GPU-memory swap rather than a full
// checkpoint, so this scheduler reports the Elastic mechanism cost class.
//
// Not part of the paper's evaluated baselines — an extra reference point
// for the library.
#pragma once

#include <vector>

#include "sched/scheduler.hpp"

namespace ones::sched {

struct GandivaConfig {
  /// Time-slicing quantum; Gandiva's default round is of this order.
  double quantum_s = 60.0;
};

class GandivaScheduler : public Scheduler {
 public:
  explicit GandivaScheduler(const GandivaConfig& config = {}) : config_(config) {}

  std::string name() const override { return "Gandiva"; }
  /// Suspend-resume is a cheap device-memory swap, not a checkpoint.
  ScalingMechanism mechanism() const override { return ScalingMechanism::Elastic; }
  double period_s() const override { return config_.quantum_s; }

  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override;

 private:
  GandivaConfig config_;
  /// Executed time at the start of each job's current slice, by JobId.
  std::vector<double> slice_start_exec_;
};

}  // namespace ones::sched
