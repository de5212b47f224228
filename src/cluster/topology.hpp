// GPU cluster topology model.
//
// Mirrors the paper's testbed: N server nodes, G GPUs per node (Longhorn:
// 16 x 4 V100), fast intra-node links (NVLink) and a slower inter-node
// fabric (EDR InfiniBand). The only topology facts the scheduler's cost model
// needs are (a) which node a GPU lives on and (b) the bandwidth/latency of
// the slowest link a worker set communicates over — all-reduce runs at the
// pace of its weakest ring segment.
#pragma once

#include <span>
#include <vector>

#include "common/ids.hpp"

namespace ones::cluster {

struct TopologyConfig {
  int num_nodes = 16;
  int gpus_per_node = 4;
  /// Effective per-GPU NVLink bandwidth within a node (bytes/second).
  double intra_node_bw_Bps = 130.0e9;
  /// Effective per-node EDR InfiniBand bandwidth (bytes/second, ~100 Gb/s).
  double inter_node_bw_Bps = 12.0e9;
  double intra_node_latency_s = 5e-6;
  double inter_node_latency_s = 2.5e-5;
};

/// Bandwidth/latency of the slowest link inside a worker set.
struct LinkProfile {
  double bandwidth_Bps = 0.0;
  double latency_s = 0.0;
};

class Topology {
 public:
  explicit Topology(const TopologyConfig& config);

  const TopologyConfig& config() const { return config_; }
  int total_gpus() const { return config_.num_nodes * config_.gpus_per_node; }
  int num_nodes() const { return config_.num_nodes; }
  int gpus_per_node() const { return config_.gpus_per_node; }

  NodeId node_of(GpuId gpu) const;
  std::vector<GpuId> gpus_of(NodeId node) const;

  /// Number of distinct nodes touched by a worker set.
  int nodes_spanned(std::span<const GpuId> gpus) const;

  /// Link profile of the slowest segment among the worker set: intra-node if
  /// all workers share a node, otherwise the inter-node fabric. The list
  /// need not be sorted.
  LinkProfile link_profile(std::span<const GpuId> gpus) const;

 private:
  TopologyConfig config_;
};

}  // namespace ones::cluster
