#include "energy/power_model.hpp"

#include <algorithm>
#include <vector>

#include "common/expect.hpp"

namespace ones::energy {

PowerModel::PowerModel(const PowerConfig& config) : config_(config) {
  ONES_EXPECT_MSG(config_.gpu_idle_w >= 0.0, "idle watts must be non-negative");
  ONES_EXPECT_MSG(config_.gpu_busy_w >= config_.gpu_idle_w,
                  "busy watts below idle watts");
  ONES_EXPECT_MSG(config_.node_base_w >= 0.0, "node base watts must be non-negative");
  ONES_EXPECT_MSG(
      config_.comm_power_fraction >= 0.0 && config_.comm_power_fraction <= 1.0,
      "comm_power_fraction must be in [0, 1]");
}

double PowerModel::worker_watts(const model::TaskProfile& profile, int local_batch,
                                double step_s) const {
  // This worker computes for its own (launch-bound-floored) batch; the rest
  // of the step it stalls on stragglers + the all-reduce.
  const int b = std::max(local_batch, profile.min_util_batch);
  const double compute =
      profile.t_step_fixed_s + static_cast<double>(b) * profile.t_sample_s;
  const double u = std::min(compute / step_s, 1.0);
  const double active = u + config_.comm_power_fraction * (1.0 - u);
  return config_.gpu_idle_w + (config_.gpu_busy_w - config_.gpu_idle_w) * active;
}

double PowerModel::job_watts(const model::TaskProfile& profile,
                             const cluster::Assignment& assignment,
                             const model::PlacedJob& job) const {
  const double step = model::step_time_s(profile, job);
  double watts = 0.0;
  for (const GpuId g : job.gpus) {
    watts += worker_watts(profile, assignment.slot(g).local_batch, step);
  }
  return watts;
}

double PowerModel::job_watts_even(const model::TaskProfile& profile,
                                  int global_batch, int workers,
                                  const cluster::LinkProfile& link) const {
  const double step = model::step_time_even_s(profile, global_batch, workers, link);
  double watts = 0.0;
  for (int i = 0; i < workers; ++i) {
    watts += worker_watts(profile, model::even_share(global_batch, workers, i), step);
  }
  return watts;
}

namespace {

/// Node base power plus one gpu_idle_w per idle GPU, added in that order. On
/// a mostly idle cluster this loop is cluster_draw's cost. Kept out of line:
/// inlined, gcc 12 held the running sum in cluster_draw's stack frame, a
/// store and a reload per idle GPU (about 9.5 instead of 6 microseconds per
/// call with 35 jobs on 2,000 GPUs).
[[gnu::noinline]] double overhead_draw(const PowerModel& model,
                                       const cluster::Topology& topology,
                                       const cluster::Assignment& assignment) {
  // A node is powered whether or not any of its GPUs host a worker.
  double watts = model.node_base_watts() * static_cast<double>(topology.num_nodes());
  for (int i = 0; i < assignment.idle_count(); ++i) watts += model.idle_gpu_watts();
  return watts;
}

}  // namespace

ClusterDraw cluster_draw(const PowerModel& model, const cluster::Topology& topology,
                         const cluster::Assignment& assignment,
                         const ProfileLookup& profile_of) {
  const double overhead_w = overhead_draw(model, topology, assignment);
  ClusterDraw draw{.cluster_w = overhead_w, .overhead_w = overhead_w};

  const auto running = assignment.running_jobs();
  std::vector<JobId> jobs(running.begin(), running.end());
  std::sort(jobs.begin(), jobs.end());
  for (const JobId job : jobs) {
    const model::TaskProfile* profile = profile_of(job);
    ONES_EXPECT_MSG(profile != nullptr, "no task profile for a placed job");
    draw.cluster_w +=
        model.job_watts(*profile, assignment, model::read_placed(assignment, topology, job));
  }
  return draw;
}

}  // namespace ones::energy
