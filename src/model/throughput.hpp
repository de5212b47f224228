// Data-parallel step-time / throughput model.
//
// A synchronous data-parallel step on c workers with local batches b_1..b_c:
//
//   compute  = t_fixed + max_i(b_i) * t_sample      (stragglers gate the step)
//   comm     = 2 (c-1)/c * params / BW + 2 (c-1) * latency     (ring
//              all-reduce over the slowest link in the worker set; 0 for c=1)
//   step     = compute + comm
//   X        = B / step                              (samples / second)
//
// This reproduces the published behaviour the scheduler exploits (Fig 2):
// with a *fixed* global batch, adding workers shrinks b_i, so compute falls
// but comm grows and throughput peaks at ~2 workers then drops; with an
// *elastic* global batch (B grows with c), per-worker utilization stays high
// and throughput keeps climbing.
//
// A placed job is read once (read_placed) into the shape the formula needs:
// c, B, max_i(b_i) and the link. The oracle, the driver's true throughput
// and the power model all price that shape.
#pragma once

#include <span>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "common/ids.hpp"
#include "model/task.hpp"

namespace ones::model {

/// Local batch of worker `index` when `global_batch` is split as evenly as
/// possible over `workers` GPUs: the first B % c workers get one extra
/// sample. Every even split in the simulator follows this rule.
constexpr int even_share(int global_batch, int workers, int index) {
  return global_batch / workers + (index < global_batch % workers ? 1 : 0);
}

/// What the step model reads of a job placed in an Assignment.
struct PlacedJob {
  std::span<const GpuId> gpus;  ///< ascending; valid until the assignment changes
  int global_batch = 0;         ///< B = sum of the local batches
  int largest_batch = 0;        ///< max_i(b_i)
  cluster::LinkProfile link;    ///< slowest link of the worker set

  int workers() const { return static_cast<int>(gpus.size()); }
};

/// One pass over `job`'s GPUs in `assignment`. The job must hold a GPU.
PlacedJob read_placed(const cluster::Assignment& assignment,
                      const cluster::Topology& topology, JobId job);

/// Step time of `workers` GPUs whose largest local batch is
/// `max_local_batch`: the formula above depends on the batch vector only
/// through c and max_i(b_i). Every other step-time and throughput function
/// delegates here. `link` is the slowest link among the worker set (see
/// Topology::link_profile).
double step_time_shape_s(const TaskProfile& profile, int workers, int max_local_batch,
                         const cluster::LinkProfile& link);

/// Step time of a placed job.
double step_time_s(const TaskProfile& profile, const PlacedJob& job);

/// Throughput (samples/s) of a placed job.
double throughput_sps(const TaskProfile& profile, const PlacedJob& job);

/// Step time when the global batch B is split evenly over c workers
/// (even_share; the largest share is ceil(B / c)).
double step_time_even_s(const TaskProfile& profile, int global_batch, int workers,
                        const cluster::LinkProfile& link);

/// Throughput (samples/s) with an even split.
double throughput_even_sps(const TaskProfile& profile, int global_batch, int workers,
                           const cluster::LinkProfile& link);

}  // namespace ones::model
