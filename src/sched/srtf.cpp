#include "sched/srtf.hpp"

#include <algorithm>
#include <ranges>

#include "common/expect.hpp"
#include "sched/oracle.hpp"
#include "sched/placement.hpp"

namespace ones::sched {

std::optional<cluster::Assignment> SrtfOracleScheduler::on_event(
    const ClusterState& state, const SchedulerEvent& event) {
  (void)event;
  ONES_EXPECT_MSG(state.true_remaining_samples != nullptr,
                  "SRTF* requires the simulator oracle hook");

  struct Cand {
    const JobView* job;
    double remaining_s;
  };
  std::vector<Cand> cands;
  for (const JobView* job : state.active_jobs()) {
    const double rem = state.true_remaining_samples(job->spec.id, job->spec.requested_batch);
    const double x = state.oracle->estimate_sps(*job, job->spec.requested_gpus,
                                                job->spec.requested_batch,
                                                state.oracle->can_colocate(job->spec.requested_gpus));
    cands.push_back({job, rem / x});
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.remaining_s != b.remaining_s) return a.remaining_s < b.remaining_s;
    return a.job->spec.id < b.job->spec.id;
  });

  // Greedy selection with skip-over: shortest jobs first, fit what we can.
  const auto picks = fit_requested(cands | std::views::transform(&Cand::job),
                                   state.current->healthy_count());
  return repack(state, picks, "SRTF*");
}

}  // namespace ones::sched
