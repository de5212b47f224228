// Deterministic GPU cluster power model (DESIGN.md §10).
//
// Watts are a pure function of the schedule: for a worker of a data-parallel
// job, the fraction of a synchronous step it spends computing (rather than
// waiting on stragglers / the all-reduce) is
//
//   u_i = (t_fixed + max(b_i, min_util_batch) * t_sample) / step_time
//
// with step_time the job's model::step_time_s — the same decomposition the
// throughput model uses, so power scales with the batch assignment exactly
// like throughput does. A job is priced from its model::read_placed shape:
// the step time is evaluated once per job, and each worker adds its own
// term in ascending GPU order. The electrical model is the usual affine one:
//
//   watts_i = gpu_idle_w + (gpu_busy_w - gpu_idle_w)
//                        * (u_i + comm_power_fraction * (1 - u_i))
//
// comm_power_fraction accounts for the copy engines / NIC keeping the board
// well above idle while it waits on the ring all-reduce. Unoccupied GPUs draw
// gpu_idle_w; every node additionally draws node_base_w (CPUs, fans, PSU
// losses) regardless of load. All outputs are watts (J/s); integrating them
// over sim-time (energy::EnergyMeter) yields joules. `cluster_draw` sums the
// whole schedule — the one function both the meter and PowerCap's admission
// test price a schedule with.
//
// Determinism: no state, no RNG, no wall-clock — identical inputs give
// bit-identical watts on every platform the throughput model does.
#pragma once

#include <functional>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "common/ids.hpp"
#include "model/task.hpp"
#include "model/throughput.hpp"

namespace ones::energy {

/// Electrical constants. Defaults approximate the paper's testbed V100
/// SXM2 boards (300 W TDP, ~50 W idle) and a 2-socket host per 4-GPU node.
struct PowerConfig {
  double gpu_idle_w = 52.0;          ///< powered but unoccupied GPU
  double gpu_busy_w = 300.0;         ///< fully-utilized GPU (TDP)
  double node_base_w = 350.0;        ///< per-node host draw (CPU, fans, PSU)
  /// Fraction of the busy-minus-idle range a worker still draws while
  /// stalled on communication (copy engines + NIC), in [0, 1].
  double comm_power_fraction = 0.25;
};

class PowerModel {
 public:
  explicit PowerModel(const PowerConfig& config);

  const PowerConfig& config() const { return config_; }
  double idle_gpu_watts() const { return config_.gpu_idle_w; }
  double node_base_watts() const { return config_.node_base_w; }

  /// Watts drawn by a worker with local batch `local_batch` in a
  /// synchronous step of `step_s` seconds (its job's step time).
  double worker_watts(const model::TaskProfile& profile, int local_batch,
                      double step_s) const;

  /// Sum of worker_watts over `job`'s workers in ascending GPU order, with
  /// the step time evaluated once. `job` is read from `assignment`.
  double job_watts(const model::TaskProfile& profile,
                   const cluster::Assignment& assignment,
                   const model::PlacedJob& job) const;

  /// job_watts with `global_batch` split evenly over `workers` GPUs
  /// (model::even_share) — the candidate-evaluation form used by schedulers
  /// (mirrors model::throughput_even_sps).
  double job_watts_even(const model::TaskProfile& profile, int global_batch,
                        int workers, const cluster::LinkProfile& link) const;

 private:
  PowerConfig config_;
};

/// Resolves a placed job to its task profile.
using ProfileLookup = std::function<const model::TaskProfile*(JobId)>;

/// Draw of a whole schedule, in watts.
struct ClusterDraw {
  double cluster_w = 0.0;
  /// The share no job is charged with: node base power plus idle GPUs.
  double overhead_w = 0.0;
};

/// Prices `assignment` under `model`. The sum runs in a fixed order — node
/// base, then one gpu_idle_w per idle GPU, then each running job's job_watts
/// in ascending JobId order — so the result does not depend on where the
/// jobs sit in the slot array. `profile_of` must cover every running job.
ClusterDraw cluster_draw(const PowerModel& model, const cluster::Topology& topology,
                         const cluster::Assignment& assignment,
                         const ProfileLookup& profile_of);

}  // namespace ones::energy
