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
#pragma once

#include <vector>

#include "cluster/topology.hpp"
#include "model/task.hpp"

namespace ones::model {

/// Step time of `workers` GPUs whose largest local batch is
/// `max_local_batch`: the formula above depends on the batch vector only
/// through c and max_i(b_i). Every other step-time and throughput function
/// delegates here. `link` is the slowest link among the worker set (see
/// Topology::link_profile).
double step_time_shape_s(const TaskProfile& profile, int workers, int max_local_batch,
                         const cluster::LinkProfile& link);

/// Step time for an explicit per-worker batch vector.
double step_time_s(const TaskProfile& profile, const std::vector<int>& local_batches,
                   const cluster::LinkProfile& link);

/// Step time when the global batch B is split as evenly as possible over c
/// workers (the largest share is ceil(B / c)).
double step_time_even_s(const TaskProfile& profile, int global_batch, int workers,
                        const cluster::LinkProfile& link);

/// Throughput (samples/s) for an explicit batch vector.
double throughput_sps(const TaskProfile& profile, const std::vector<int>& local_batches,
                      const cluster::LinkProfile& link);

/// Throughput (samples/s) with an even split.
double throughput_even_sps(const TaskProfile& profile, int global_batch, int workers,
                           const cluster::LinkProfile& link);

/// Split a global batch as evenly as possible over `workers` GPUs
/// (first B % c workers get one extra sample).
std::vector<int> even_split(int global_batch, int workers);

}  // namespace ones::model
