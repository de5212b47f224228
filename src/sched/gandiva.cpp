#include "sched/gandiva.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "sched/placement.hpp"

namespace ones::sched {

std::optional<cluster::Assignment> GandivaScheduler::on_event(const ClusterState& state,
                                                              const SchedulerEvent& event) {
  // Between quanta: only fill freed capacity with the longest-waiting jobs
  // (no preemption outside rotation points).
  const bool rotation = event.kind == EventKind::Timer;

  // Order candidates: jobs that have not run this slice (waiting) first, by
  // how little total service they have attained (fair sharing), then
  // currently running jobs that still have quantum left.
  struct Cand {
    const JobView* job;
    bool expired = false;  ///< running and consumed a full quantum
  };
  std::vector<Cand> waiting, running_fresh, running_expired;
  if (slice_start_exec_.size() < state.id_bound()) slice_start_exec_.resize(state.id_bound());
  for (const JobView* job : state.active_jobs()) {
    if (job->status == JobStatus::Waiting) {
      waiting.push_back({job, false});
      continue;
    }
    const double start = slice_start_exec_[static_cast<std::size_t>(job->spec.id)];
    const bool expired = rotation && (job->exec_time_s - start >= config_.quantum_s);
    (expired ? running_expired : running_fresh).push_back({job, expired});
  }
  // Fair sharing: least attained service first among the waiting.
  std::sort(waiting.begin(), waiting.end(), [](const Cand& a, const Cand& b) {
    if (a.job->exec_time_s != b.job->exec_time_s) {
      return a.job->exec_time_s < b.job->exec_time_s;
    }
    return a.job->spec.id < b.job->spec.id;
  });

  // Selection order: fresh running jobs keep their slice; waiting jobs fill
  // the rest; expired jobs re-enter only if space remains (they rotate out
  // when others are starving).
  std::vector<const JobView*> selected;
  int capacity = state.current->healthy_count();
  auto take = [&](const std::vector<Cand>& pool) {
    for (const Cand& c : pool) {
      if (c.job->spec.requested_gpus <= capacity) {
        selected.push_back(c.job);
        capacity -= c.job->spec.requested_gpus;
      }
    }
  };
  take(running_fresh);
  take(waiting);
  take(running_expired);

  // Anything to change?
  const auto running_now = state.current->running_jobs();
  if (selected.size() == running_now.size()) {
    bool same = true;
    for (const JobView* j : selected) {
      if (std::find(running_now.begin(), running_now.end(), j->spec.id) ==
          running_now.end()) {
        same = false;
        break;
      }
    }
    if (same) return std::nullopt;
  }

  cluster::Assignment next = cluster::Assignment::empty_like(*state.current);
  for (const JobView* j : selected) {
    if (j->status == JobStatus::Running) {
      for (GpuId g : state.current->gpus_of(j->spec.id)) {
        next.place(g, j->spec.id, state.current->slot(g).local_batch);
      }
    }
  }
  for (const JobView* j : selected) {
    if (j->status != JobStatus::Running) {
      // Introspective packing: locality-aware placement on (re)entry.
      const auto gpus = pick_idle_gpus(next, *state.topology, j->spec.requested_gpus);
      ONES_EXPECT_MSG(!gpus.empty(), "capacity accounting broke in Gandiva");
      place_job_even(next, j->spec.id, gpus, j->spec.requested_batch);
      slice_start_exec_[static_cast<std::size_t>(j->spec.id)] = j->exec_time_s;  // slice begins
    }
  }
  return next;
}

}  // namespace ones::sched
