// Fragmentation and locality analytics over a cluster Assignment.
//
// §2.2 motivates elasticity with the fragmentation problem: idle GPUs that
// are too scattered to satisfy any pending gang request are wasted. These
// metrics quantify that — how large a gang the current free pool could
// still place with full locality, how scattered running jobs are — and feed
// examples / benches that visualize scheduler behaviour.
#pragma once

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"

namespace ones::cluster {

struct FragmentationStats {
  int idle_gpus = 0;
  /// Largest idle block within a single node (the biggest gang that can be
  /// placed with full locality).
  int largest_colocated_block = 0;
  /// Number of nodes with at least one idle GPU.
  int nodes_with_idle = 0;
  /// 0 = all idle GPUs sit on as few nodes as possible (no fragmentation);
  /// 1 = idle GPUs are maximally scattered. Undefined (0) when nothing idle.
  double scatter_index = 0.0;
};

FragmentationStats fragmentation_stats(const Assignment& assignment,
                                       const Topology& topology);

struct LocalityStats {
  int jobs = 0;              ///< running multi-GPU jobs considered
  int colocated_jobs = 0;    ///< jobs whose workers share one node
  double avg_nodes_spanned = 0.0;  ///< mean nodes spanned per multi-GPU job
};

LocalityStats locality_stats(const Assignment& assignment, const Topology& topology);

}  // namespace ones::cluster
