#include "sched/fifo.hpp"

#include "sched/placement.hpp"

namespace ones::sched {

std::optional<cluster::Assignment> FifoScheduler::on_event(const ClusterState& state,
                                                           const SchedulerEvent& event) {
  if (event.kind == EventKind::EpochComplete) return std::nullopt;  // nothing to do

  cluster::Assignment next = *state.current;
  bool changed = false;
  for (const JobView* job : state.active_jobs()) {  // arrival order
    if (job->status != JobStatus::Waiting) continue;
    // No free GPU means no placement can succeed for any queued job —
    // identical decisions to trying (and failing) each one in turn.
    if (next.idle_count() == 0) break;
    const auto gpus = pick_idle_gpus(next, *state.topology, job->spec.requested_gpus);
    if (gpus.empty()) {
      if (!backfill_) break;  // strict FIFO: head-of-line blocking
      continue;
    }
    place_job_even(next, job->spec.id, gpus, job->spec.requested_batch);
    changed = true;
  }
  if (!changed) return std::nullopt;
  return next;
}

}  // namespace ones::sched
