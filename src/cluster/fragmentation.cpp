#include "cluster/fragmentation.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/math_util.hpp"

namespace ones::cluster {

FragmentationStats fragmentation_stats(const Assignment& assignment,
                                       const Topology& topology) {
  ONES_EXPECT(assignment.num_gpus() == topology.total_gpus());
  FragmentationStats stats;
  std::vector<int> idle_per_node(static_cast<std::size_t>(topology.num_nodes()), 0);
  for (GpuId g : assignment.idle_gpus()) {
    idle_per_node[static_cast<std::size_t>(topology.node_of(g))] += 1;
    stats.idle_gpus += 1;
  }
  for (int n : idle_per_node) {
    stats.largest_colocated_block = std::max(stats.largest_colocated_block, n);
    if (n > 0) stats.nodes_with_idle += 1;
  }
  if (stats.idle_gpus > 0) {
    // Minimum nodes needed to hold the idle pool vs how many actually do.
    const int per_node = topology.gpus_per_node();
    const int min_nodes = static_cast<int>(ceil_div(stats.idle_gpus, per_node));
    const int max_nodes = std::min(stats.idle_gpus, topology.num_nodes());
    if (max_nodes > min_nodes) {
      stats.scatter_index = static_cast<double>(stats.nodes_with_idle - min_nodes) /
                            static_cast<double>(max_nodes - min_nodes);
    }
  }
  return stats;
}

LocalityStats locality_stats(const Assignment& assignment, const Topology& topology) {
  ONES_EXPECT(assignment.num_gpus() == topology.total_gpus());
  LocalityStats stats;
  double total_spanned = 0.0;
  for (JobId j : assignment.running_jobs()) {
    const auto gpus = assignment.gpus_of(j);
    if (gpus.size() < 2) continue;
    stats.jobs += 1;
    const int spanned = topology.nodes_spanned(gpus);
    total_spanned += spanned;
    if (spanned == 1) stats.colocated_jobs += 1;
  }
  if (stats.jobs > 0) {
    stats.avg_nodes_spanned = total_spanned / static_cast<double>(stats.jobs);
  }
  return stats;
}

}  // namespace ones::cluster
