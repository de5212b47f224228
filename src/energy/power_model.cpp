#include "energy/power_model.hpp"

#include <algorithm>
#include <vector>

#include "common/expect.hpp"
#include "model/throughput.hpp"

namespace ones::energy {

namespace {

/// model::step_time_s over a span of local batches (that one takes a vector).
double step_time_s(const model::TaskProfile& profile, std::span<const int> local_batches,
                   const cluster::LinkProfile& link) {
  ONES_EXPECT(!local_batches.empty());
  int largest = 0;
  for (const int b : local_batches) {
    ONES_EXPECT_MSG(b >= 1, "every worker needs at least one sample");
    largest = std::max(largest, b);
  }
  return model::step_time_shape_s(profile, static_cast<int>(local_batches.size()),
                                  largest, link);
}

}  // namespace

PowerModel::PowerModel(const PowerConfig& config) : config_(config) {
  ONES_EXPECT_MSG(config_.gpu_idle_w >= 0.0, "idle watts must be non-negative");
  ONES_EXPECT_MSG(config_.gpu_busy_w >= config_.gpu_idle_w,
                  "busy watts below idle watts");
  ONES_EXPECT_MSG(config_.node_base_w >= 0.0, "node base watts must be non-negative");
  ONES_EXPECT_MSG(
      config_.comm_power_fraction >= 0.0 && config_.comm_power_fraction <= 1.0,
      "comm_power_fraction must be in [0, 1]");
}

double PowerModel::worker_watts(const model::TaskProfile& profile,
                                std::span<const int> local_batches,
                                std::size_t index,
                                const cluster::LinkProfile& link) const {
  ONES_EXPECT(index < local_batches.size());
  const double step = step_time_s(profile, local_batches, link);
  // This worker computes for its own (launch-bound-floored) batch; the rest
  // of the step it stalls on stragglers + the all-reduce.
  const int b = std::max(local_batches[index], profile.min_util_batch);
  const double compute =
      profile.t_step_fixed_s + static_cast<double>(b) * profile.t_sample_s;
  const double u = std::min(compute / step, 1.0);
  const double active = u + config_.comm_power_fraction * (1.0 - u);
  return config_.gpu_idle_w + (config_.gpu_busy_w - config_.gpu_idle_w) * active;
}

double PowerModel::job_watts(const model::TaskProfile& profile,
                             std::span<const int> local_batches,
                             const cluster::LinkProfile& link) const {
  double watts = 0.0;
  for (std::size_t i = 0; i < local_batches.size(); ++i) {
    watts += worker_watts(profile, local_batches, i, link);
  }
  return watts;
}

double PowerModel::job_watts_even(const model::TaskProfile& profile,
                                  int global_batch, int workers,
                                  const cluster::LinkProfile& link) const {
  return job_watts(profile, model::even_split(global_batch, workers), link);
}

ClusterDraw cluster_draw(const PowerModel& model, const cluster::Topology& topology,
                         const cluster::Assignment& assignment,
                         const ProfileLookup& profile_of) {
  ClusterDraw draw;
  // A node is powered whether or not any of its GPUs host a worker.
  draw.overhead_w = model.node_base_watts() * static_cast<double>(topology.num_nodes());
  for (int i = 0; i < assignment.idle_count(); ++i) draw.overhead_w += model.idle_gpu_watts();
  draw.cluster_w = draw.overhead_w;

  const auto running = assignment.running_jobs();
  std::vector<JobId> jobs(running.begin(), running.end());
  std::sort(jobs.begin(), jobs.end());
  std::vector<int> batches;
  for (const JobId job : jobs) {
    const model::TaskProfile* profile = profile_of(job);
    ONES_EXPECT_MSG(profile != nullptr, "no task profile for a placed job");
    const auto gpus = assignment.gpus_of(job);
    batches.clear();
    for (const GpuId g : gpus) batches.push_back(assignment.slot(g).local_batch);
    draw.cluster_w += model.job_watts(*profile, batches, topology.link_profile(gpus));
  }
  return draw;
}

}  // namespace ones::energy
