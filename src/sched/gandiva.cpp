#include "sched/gandiva.hpp"

#include <algorithm>
#include <ranges>
#include <span>

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
  std::vector<const JobView*> waiting, running_fresh, running_expired;
  if (slice_start_exec_.size() < state.id_bound()) slice_start_exec_.resize(state.id_bound());
  for (const JobView* job : state.active_jobs()) {
    if (job->status == JobStatus::Waiting) {
      waiting.push_back(job);
      continue;
    }
    const double start = slice_start_exec_[static_cast<std::size_t>(job->spec.id)];
    const bool expired = rotation && (job->exec_time_s - start >= config_.quantum_s);
    (expired ? running_expired : running_fresh).push_back(job);
  }
  // Fair sharing: least attained service first among the waiting.
  std::sort(waiting.begin(), waiting.end(), [](const JobView* a, const JobView* b) {
    if (a->exec_time_s != b->exec_time_s) return a->exec_time_s < b->exec_time_s;
    return a->spec.id < b->spec.id;
  });

  // Selection order: fresh running jobs keep their slice; waiting jobs fill
  // the rest; expired jobs re-enter only if space remains (they rotate out
  // when others are starving). Placement on (re)entry is locality-aware
  // (introspective packing).
  const std::span<const JobView* const> order[] = {running_fresh, waiting, running_expired};
  const auto picks = fit_requested(order | std::views::join, state.current->healthy_count());
  auto next = repack(state, picks, "Gandiva");
  if (next) {
    for (const Pick& p : picks) {  // a job (re)entering starts a new slice
      if (p.job->status != JobStatus::Running) {
        slice_start_exec_[static_cast<std::size_t>(p.job->spec.id)] = p.job->exec_time_s;
      }
    }
  }
  return next;
}

}  // namespace ones::sched
