// Locality-aware placement helpers shared by the gang-scheduling baselines.
//
// Picks idle GPUs for a worker set, preferring to pack the whole set onto a
// single node (best-fit: the node whose free-GPU count is smallest but
// sufficient), falling back to spilling across the emptiest nodes. ONES
// achieves the same effect through its *reorder* evolution operator instead.
//
// The rebuilding baselines (Tiresias, SRTF*, Gandiva, Optimus) differ only
// in the order they pick jobs and the worker counts they give them; `repack`
// turns their picks into the next schedule.
#pragma once

#include <optional>
#include <ranges>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "sched/scheduler.hpp"

namespace ones::sched {

/// Choose `count` idle GPUs in `assignment`. Returns an empty vector if
/// fewer than `count` GPUs are idle.
std::vector<GpuId> pick_idle_gpus(const cluster::Assignment& assignment,
                                  const cluster::Topology& topology, int count);

/// Place `job` on `gpus` splitting `global_batch` evenly (model::even_share).
/// `gpus` may be the job's own gpus_of view: re-placing its own GPUs
/// changes only batches, so the view stays valid throughout.
void place_job_even(cluster::Assignment& assignment, JobId job,
                    std::span<const GpuId> gpus, int global_batch);

/// A job picked for the next gang schedule, with its worker count.
struct Pick {
  const JobView* job;
  int workers;
};

/// Greedy skip-over fit: walks `order` (JobView pointers, most urgent first)
/// and takes each job whose requested_gpus still fits in `capacity`. Every
/// taken job is charged requested_gpus, running or not. A taken running job
/// keeps its live `gpus` (an elastic job shrunk by a fault stays shrunk);
/// any other taken job gets requested_gpus.
template <std::ranges::input_range Order>
std::vector<Pick> fit_requested(Order&& order, int capacity) {
  std::vector<Pick> picks;
  for (const JobView* job : order) {
    const int requested = job->spec.requested_gpus;
    if (requested > capacity) continue;
    capacity -= requested;
    picks.push_back({job, job->status == JobStatus::Running ? job->gpus : requested});
  }
  return picks;
}

/// The next schedule running exactly `picks`, or nullopt if that is the
/// current one. A running pick whose worker count equals its live `gpus`
/// keeps its GPUs and local batches; every other pick, in pick order, gets
/// idle GPUs from pick_idle_gpus and its requested batch split evenly.
/// `policy` names the caller in the capacity check.
std::optional<cluster::Assignment> repack(const ClusterState& state,
                                          std::span<const Pick> picks,
                                          std::string_view policy);

}  // namespace ones::sched
