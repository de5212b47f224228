#include "cluster/topology.hpp"

#include <algorithm>
#include <vector>

#include "common/expect.hpp"

namespace ones::cluster {

Topology::Topology(const TopologyConfig& config) : config_(config) {
  ONES_EXPECT(config.num_nodes > 0);
  ONES_EXPECT(config.gpus_per_node > 0);
  ONES_EXPECT(config.intra_node_bw_Bps > 0.0 && config.inter_node_bw_Bps > 0.0);
}

NodeId Topology::node_of(GpuId gpu) const {
  ONES_EXPECT(gpu >= 0 && gpu < total_gpus());
  return gpu / config_.gpus_per_node;
}

std::vector<GpuId> Topology::gpus_of(NodeId node) const {
  ONES_EXPECT(node >= 0 && node < config_.num_nodes);
  std::vector<GpuId> out;
  out.reserve(config_.gpus_per_node);
  for (int i = 0; i < config_.gpus_per_node; ++i) {
    out.push_back(node * config_.gpus_per_node + i);
  }
  return out;
}

int Topology::nodes_spanned(std::span<const GpuId> gpus) const {
  std::vector<NodeId> nodes;
  nodes.reserve(gpus.size());
  for (GpuId g : gpus) nodes.push_back(node_of(g));
  std::sort(nodes.begin(), nodes.end());
  return static_cast<int>(std::unique(nodes.begin(), nodes.end()) - nodes.begin());
}

LinkProfile Topology::link_profile(std::span<const GpuId> gpus) const {
  ONES_EXPECT(!gpus.empty());
  // One node iff the lowest and highest node ids coincide; no set needed.
  NodeId lo = node_of(gpus.front());
  NodeId hi = lo;
  for (const GpuId g : gpus) {
    const NodeId n = node_of(g);
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  if (lo == hi) {
    return {config_.intra_node_bw_Bps, config_.intra_node_latency_s};
  }
  return {config_.inter_node_bw_Bps, config_.inter_node_latency_s};
}

}  // namespace ones::cluster
