#include "sched/placement.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/expect.hpp"
#include "model/throughput.hpp"

namespace ones::sched {

namespace {

/// pick_idle_gpus's buffers, reused across calls so that a pick allocates
/// only its result. Nothing is read across calls.
struct PickScratch {
  std::vector<int> free;       ///< by node: idle GPUs on it
  std::vector<int> end;        ///< by node: one past its bucket in `by_node`
  std::vector<GpuId> by_node;  ///< idle GPUs bucketed by node, ascending within one
  std::vector<int> order;      ///< spill order of the nodes
};
thread_local PickScratch pick_scratch;

}  // namespace

std::vector<GpuId> pick_idle_gpus(const cluster::Assignment& assignment,
                                  const cluster::Topology& topology, int count) {
  ONES_EXPECT(count >= 1);
  if (assignment.idle_count() < count) return {};

  // Free GPUs per node, bucketed in one flat array by a counting sort:
  // counts, prefix offsets, then a fill in idle (ascending) order.
  PickScratch& s = pick_scratch;
  const int nodes = topology.num_nodes();
  const auto idle = assignment.idle_gpus();
  s.free.assign(static_cast<std::size_t>(nodes), 0);
  for (const GpuId g : idle) ++s.free[static_cast<std::size_t>(topology.node_of(g))];
  s.end.resize(static_cast<std::size_t>(nodes));
  int offset = 0;
  for (std::size_t n = 0; n < s.end.size(); ++n) {
    s.end[n] = offset;  // the bucket's start; the fill advances it to its end
    offset += s.free[n];
  }
  s.by_node.resize(idle.size());
  for (const GpuId g : idle) {
    s.by_node[static_cast<std::size_t>(s.end[static_cast<std::size_t>(topology.node_of(g))]++)] = g;
  }
  const auto bucket = [&](int n) {
    const auto i = static_cast<std::size_t>(n);
    return std::span<const GpuId>(s.by_node).subspan(
        static_cast<std::size_t>(s.end[i] - s.free[i]), static_cast<std::size_t>(s.free[i]));
  };
  const auto free_on = [&](int n) { return s.free[static_cast<std::size_t>(n)]; };

  // Best fit: the node with the *fewest* free GPUs that still fits the set,
  // to preserve large holes for large jobs.
  int best_node = -1;
  for (int n = 0; n < nodes; ++n) {
    if (free_on(n) >= count && (best_node < 0 || free_on(n) < free_on(best_node))) {
      best_node = n;
    }
  }
  std::vector<GpuId> out;
  if (best_node >= 0) {
    const auto pool = bucket(best_node);
    out.assign(pool.begin(), pool.begin() + count);
    return out;
  }

  // Spill: take from the emptiest nodes first to minimize the span. The same
  // 0..N-1 input, comparator and counts go into std::sort (not a stable
  // sort), so ties among equally free nodes break as they always have.
  s.order.resize(static_cast<std::size_t>(nodes));
  std::iota(s.order.begin(), s.order.end(), 0);
  std::sort(s.order.begin(), s.order.end(),
            [&](int a, int b) { return free_on(a) > free_on(b); });
  out.reserve(static_cast<std::size_t>(count));
  for (const int n : s.order) {
    for (const GpuId g : bucket(n)) {
      if (static_cast<int>(out.size()) == count) return out;
      out.push_back(g);
    }
  }
  ONES_EXPECT(static_cast<int>(out.size()) == count);
  return out;
}

void place_job_even(cluster::Assignment& assignment, JobId job,
                    const std::vector<GpuId>& gpus, int global_batch) {
  ONES_EXPECT(!gpus.empty());
  const auto split = model::even_split(global_batch, static_cast<int>(gpus.size()));
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    assignment.place(gpus[i], job, split[i]);
  }
}

}  // namespace ones::sched
