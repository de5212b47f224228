#include "model/throughput.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace ones::model {

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

double step_time_s(const TaskProfile& profile, const std::vector<int>& local_batches,
                   const cluster::LinkProfile& link) {
  ONES_EXPECT(!local_batches.empty());
  int max_b = 0;
  for (int b : local_batches) {
    ONES_EXPECT_MSG(b >= 1, "every worker needs at least one sample");
    max_b = std::max(max_b, b);
  }
  return step_time_shape_s(profile, static_cast<int>(local_batches.size()), max_b, link);
}

std::vector<int> even_split(int global_batch, int workers) {
  ONES_EXPECT(workers >= 1);
  ONES_EXPECT_MSG(global_batch >= workers, "cannot give every worker a sample");
  std::vector<int> out(static_cast<std::size_t>(workers), global_batch / workers);
  const int rem = global_batch % workers;
  for (int i = 0; i < rem; ++i) out[static_cast<std::size_t>(i)] += 1;
  return out;
}

double step_time_even_s(const TaskProfile& profile, int global_batch, int workers,
                        const cluster::LinkProfile& link) {
  ONES_EXPECT(workers >= 1);
  ONES_EXPECT_MSG(global_batch >= workers, "cannot give every worker a sample");
  const int largest = global_batch / workers + (global_batch % workers != 0 ? 1 : 0);
  return step_time_shape_s(profile, workers, largest, link);
}

double throughput_sps(const TaskProfile& profile, const std::vector<int>& local_batches,
                      const cluster::LinkProfile& link) {
  int total = 0;
  for (int b : local_batches) total += b;
  return static_cast<double>(total) / step_time_s(profile, local_batches, link);
}

double throughput_even_sps(const TaskProfile& profile, int global_batch, int workers,
                           const cluster::LinkProfile& link) {
  return static_cast<double>(global_batch) /
         step_time_even_s(profile, global_batch, workers, link);
}

}  // namespace ones::model
