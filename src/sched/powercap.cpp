#include "sched/powercap.hpp"

#include "common/expect.hpp"
#include "energy/power_model.hpp"
#include "sched/placement.hpp"

namespace ones::sched {

namespace {

/// Budget as a fraction of peak draw (every GPU at gpu_busy_w plus all node
/// base power).
constexpr double kCapFraction = 0.7;

double cap_watts(const ClusterState& state) {
  const energy::PowerConfig& cfg = state.power->config();
  const double peak =
      static_cast<double>(state.topology->total_gpus()) * cfg.gpu_busy_w +
      static_cast<double>(state.topology->num_nodes()) * cfg.node_base_w;
  return kCapFraction * peak;
}

}  // namespace

std::optional<cluster::Assignment> PowerCapScheduler::on_event(
    const ClusterState& state, const SchedulerEvent& event) {
  if (event.kind == EventKind::EpochComplete) return std::nullopt;
  ONES_EXPECT_MSG(state.power != nullptr, "PowerCap requires the driver power model");

  cluster::Assignment next = *state.current;
  double watts =
      energy::cluster_draw(*state.power, *state.topology, next, [&state](JobId id) {
        const JobView* job = state.job(id);
        return job == nullptr ? nullptr : job->profile;
      }).cluster_w;
  const double cap = cap_watts(state);
  bool any_running = !next.running_jobs().empty();
  bool changed = false;
  for (const JobView* job : state.waiting_jobs()) {  // arrival order
    const auto gpus = pick_idle_gpus(next, *state.topology, job->spec.requested_gpus);
    if (gpus.empty()) continue;  // backfill past blocked heads
    // Projected draw: the chosen GPUs stop idling and start working.
    const double job_w = state.power->job_watts_even(
        *job->profile, job->spec.requested_batch, static_cast<int>(gpus.size()),
        state.topology->link_profile(gpus));
    const double projected =
        watts + job_w -
        static_cast<double>(gpus.size()) * state.power->idle_gpu_watts();
    if (projected > cap && any_running) continue;  // over budget: stay queued
    place_job_even(next, job->spec.id, gpus, job->spec.requested_batch);
    watts = projected;
    any_running = true;
    changed = true;
  }
  if (!changed) return std::nullopt;
  return next;
}

}  // namespace ones::sched
