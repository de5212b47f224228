#include "sched/tiresias.hpp"

#include <algorithm>
#include <ranges>

#include "sched/placement.hpp"

namespace ones::sched {

int TiresiasScheduler::queue_of(const JobView& job) const {
  const double service = static_cast<double>(job.spec.requested_gpus) * job.exec_time_s;
  int q = 0;
  for (double threshold : config_.queue_thresholds) {
    if (service < threshold) return q;
    ++q;
  }
  return q;
}

std::optional<cluster::Assignment> TiresiasScheduler::on_event(const ClusterState& state,
                                                               const SchedulerEvent& event) {
  (void)event;

  struct Cand {
    const JobView* job;
    int queue;
  };
  std::vector<Cand> cands;
  for (const JobView* job : state.active_jobs()) cands.push_back({job, queue_of(*job)});
  // Priority: lower queue first; FIFO (arrival order) within a queue.
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.queue != b.queue) return a.queue < b.queue;
    return a.job->spec.id < b.job->spec.id;
  });

  const auto picks = fit_requested(cands | std::views::transform(&Cand::job),
                                   state.current->healthy_count());
  return repack(state, picks, "Tiresias");
}

}  // namespace ones::sched
