// Deterministic GPU cluster power model (DESIGN.md §10).
//
// Watts are a pure function of the schedule: for a worker of a data-parallel
// job, the fraction of a synchronous step it spends computing (rather than
// waiting on stragglers / the all-reduce) is
//
//   u_i = (t_fixed + max(b_i, min_util_batch) * t_sample) / step_time
//
// with step_time from model::step_time_s — the same decomposition the
// throughput model uses, so power scales with the batch assignment exactly
// like throughput does. The electrical model is the usual affine one:
//
//   watts_i = gpu_idle_w + (gpu_busy_w - gpu_idle_w)
//                        * (u_i + comm_power_fraction * (1 - u_i))
//
// comm_power_fraction accounts for the copy engines / NIC keeping the board
// well above idle while it waits on the ring all-reduce. Unoccupied GPUs draw
// gpu_idle_w; every node additionally draws node_base_w (CPUs, fans, PSU
// losses) regardless of load. All outputs are watts (J/s); integrating them
// over sim-time (energy::EnergyMeter) yields joules.
//
// Determinism: no state, no RNG, no wall-clock — identical inputs give
// bit-identical watts on every platform the throughput model does.
#pragma once

#include <cstddef>
#include <span>

#include "cluster/topology.hpp"
#include "model/task.hpp"

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

  /// Watts drawn by worker `index` of a job running `local_batches` over
  /// `link` (the slowest link of the worker set, as in model::step_time_s).
  double worker_watts(const model::TaskProfile& profile,
                      std::span<const int> local_batches, std::size_t index,
                      const cluster::LinkProfile& link) const;

  /// Sum of worker_watts over all workers.
  double job_watts(const model::TaskProfile& profile,
                   std::span<const int> local_batches,
                   const cluster::LinkProfile& link) const;

  /// job_watts with `global_batch` split evenly over `workers` GPUs — the
  /// candidate-evaluation form used by schedulers (mirrors
  /// model::throughput_even_sps).
  double job_watts_even(const model::TaskProfile& profile, int global_batch,
                        int workers, const cluster::LinkProfile& link) const;

 private:
  PowerConfig config_;
};

}  // namespace ones::energy
