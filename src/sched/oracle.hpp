// Throughput estimation service.
//
// On the real testbed every scheduler profiles job throughput online (ONES
// measures per-GPU throughput; Optimus fits a resource-speed model from
// observations). In the simulator both would just be re-learning the
// analytic cost model, so we expose a shared estimation service backed by
// that model. All schedulers query the same oracle, so none gains an unfair
// information advantage; optional multiplicative noise models profiling
// error.
#pragma once

#include <cstdint>

#include "cluster/topology.hpp"
#include "model/throughput.hpp"
#include "sched/scheduler.hpp"

namespace ones::sched {

struct OracleConfig {
  /// Log-normal multiplicative noise sigma applied to estimates
  /// (0 = exact). The noise is a deterministic function of
  /// (job, workers, batch), mimicking a stable profiling bias.
  double noise_sigma = 0.0;
  std::uint64_t noise_seed = 7;
};

class ThroughputOracle {
 public:
  ThroughputOracle(const cluster::Topology& topology, const OracleConfig& config = {});

  /// Estimated steady-state throughput (samples/s) of `job` on `workers`
  /// GPUs with global batch `batch`, assuming an even split. `colocated`
  /// selects the intra-node link profile; otherwise the inter-node fabric.
  double estimate_sps(const JobView& job, int workers, int batch, bool colocated) const;

  /// Estimate for a concrete placement (model::read_placed: the true link
  /// profile of the GPU set and the exact per-slot batch split).
  double estimate_placed_sps(const JobView& job, const model::PlacedJob& placed) const;

  /// Whether `workers` GPUs can fit on one node of this topology.
  bool can_colocate(int workers) const;

  const cluster::Topology& topology() const { return topology_; }

 private:
  double noise_factor(JobId job, int workers, int batch) const;

  const cluster::Topology& topology_;
  OracleConfig config_;
};

}  // namespace ones::sched
