#include "sched/placement.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

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
                    std::span<const GpuId> gpus, int global_batch) {
  ONES_EXPECT(!gpus.empty());
  const int c = static_cast<int>(gpus.size());
  for (int i = 0; i < c; ++i) {
    assignment.place(gpus[static_cast<std::size_t>(i)], job,
                     model::even_share(global_batch, c, i));
  }
}

std::optional<cluster::Assignment> repack(const ClusterState& state,
                                          std::span<const Pick> picks,
                                          std::string_view policy) {
  const cluster::Assignment& current = *state.current;
  const auto kept = [](const Pick& p) {
    return p.job->status == JobStatus::Running && p.workers == p.job->gpus;
  };
  if (picks.size() == current.running_jobs().size() && std::ranges::all_of(picks, kept)) {
    return std::nullopt;
  }

  // The kept jobs' slots, and the health map, in one bulk build.
  std::vector<cluster::Slot> slots(static_cast<std::size_t>(current.num_gpus()));
  for (const GpuId g : current.unhealthy_gpus()) {
    slots[static_cast<std::size_t>(g)].health = current.health(g);
  }
  for (const Pick& p : picks) {
    if (!kept(p)) continue;
    for (const GpuId g : current.gpus_of(p.job->spec.id)) {
      slots[static_cast<std::size_t>(g)] = current.slot(g);
    }
  }
  cluster::Assignment next = cluster::Assignment::from_slots(std::move(slots));
  for (const Pick& p : picks) {
    if (kept(p)) continue;
    const auto gpus = pick_idle_gpus(next, *state.topology, p.workers);
    ONES_EXPECT_MSG(!gpus.empty(), "capacity accounting broke in " + std::string(policy));
    place_job_even(next, p.job->spec.id, gpus, p.job->spec.requested_batch);
  }
  return next;
}

}  // namespace ones::sched
