#include "model/throughput.hpp"

#include <algorithm>
#include <array>

#include "common/expect.hpp"

namespace ones::model {

PlacedJob read_placed(const cluster::Assignment& assignment,
                      const cluster::Topology& topology, JobId job) {
  PlacedJob placed;
  placed.gpus = assignment.gpus_of(job);
  ONES_EXPECT_MSG(!placed.gpus.empty(), "job has no workers in this assignment");
  for (const GpuId g : placed.gpus) {
    const int b = assignment.slot(g).local_batch;
    placed.global_batch += b;
    placed.largest_batch = std::max(placed.largest_batch, b);
  }
  // Node ids grow with GPU ids, so the two ends of the ascending list span
  // the same nodes as the whole list.
  const std::array<GpuId, 2> ends{placed.gpus.front(), placed.gpus.back()};
  placed.link = topology.link_profile(ends);
  return placed;
}

double step_time_shape_s(const TaskProfile& profile, int workers, int max_local_batch,
                         const cluster::LinkProfile& link) {
  ONES_EXPECT(workers >= 1);
  ONES_EXPECT_MSG(max_local_batch >= 1, "every worker needs at least one sample");
  const double c = static_cast<double>(workers);
  // Launch-bound floor: shrinking the local batch below min_util_batch no
  // longer shortens the step (the GPU is underutilized).
  const int effective_b = std::max(max_local_batch, profile.min_util_batch);
  const double compute =
      profile.t_step_fixed_s + static_cast<double>(effective_b) * profile.t_sample_s;
  double comm = 0.0;
  if (workers > 1) {
    ONES_EXPECT(link.bandwidth_Bps > 0.0);
    comm = 2.0 * (c - 1.0) / c * profile.params_bytes / link.bandwidth_Bps +
           2.0 * (c - 1.0) * link.latency_s;
  }
  return compute + comm;
}

double step_time_s(const TaskProfile& profile, const PlacedJob& job) {
  return step_time_shape_s(profile, job.workers(), job.largest_batch, job.link);
}

double throughput_sps(const TaskProfile& profile, const PlacedJob& job) {
  return static_cast<double>(job.global_batch) / step_time_s(profile, job);
}

double step_time_even_s(const TaskProfile& profile, int global_batch, int workers,
                        const cluster::LinkProfile& link) {
  ONES_EXPECT(workers >= 1);
  ONES_EXPECT_MSG(global_batch >= workers, "cannot give every worker a sample");
  return step_time_shape_s(profile, workers, even_share(global_batch, workers, 0), link);
}

double throughput_even_sps(const TaskProfile& profile, int global_batch, int workers,
                           const cluster::LinkProfile& link) {
  return static_cast<double>(global_batch) /
         step_time_even_s(profile, global_batch, workers, link);
}

}  // namespace ones::model
