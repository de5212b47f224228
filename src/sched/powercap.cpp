#include "sched/powercap.hpp"

#include <vector>

#include "common/expect.hpp"
#include "energy/power_model.hpp"
#include "sched/placement.hpp"

namespace ones::sched {

namespace {

/// Draw of `assignment` under the driver's power model: per-node base +
/// idle-GPU draw + every running job's worker draw (the same decomposition
/// energy::EnergyMeter bills with).
double assignment_watts(const cluster::Assignment& assignment,
                        const ClusterState& state) {
  const energy::PowerConfig& cfg = state.power->config();
  double watts =
      static_cast<double>(state.topology->num_nodes()) * cfg.node_base_w +
      static_cast<double>(assignment.idle_count()) * cfg.gpu_idle_w;
  for (JobId id : assignment.running_jobs()) {
    const JobView* job = state.job(id);
    ONES_EXPECT_MSG(job != nullptr && job->profile != nullptr,
                    "assignment references an unknown job");
    const auto gpus = assignment.gpus_of(id);
    std::vector<int> batches;
    batches.reserve(gpus.size());
    for (GpuId g : gpus) batches.push_back(assignment.slot(g).local_batch);
    watts += state.power->job_watts(*job->profile, batches,
                                    state.topology->link_profile(gpus));
  }
  return watts;
}

}  // namespace

PowerCapScheduler::PowerCapScheduler(const PowerCapConfig& config) : config_(config) {
  ONES_EXPECT_MSG(config_.cap_fraction > 0.0 && config_.cap_fraction <= 1.0,
                  "cap_fraction must be in (0, 1]");
  ONES_EXPECT_MSG(config_.cap_watts >= 0.0, "cap_watts must be non-negative");
}

double PowerCapScheduler::cap_watts(const ClusterState& state) const {
  if (config_.cap_watts > 0.0) return config_.cap_watts;
  const energy::PowerConfig& cfg = state.power->config();
  const double peak =
      static_cast<double>(state.topology->total_gpus()) * cfg.gpu_busy_w +
      static_cast<double>(state.topology->num_nodes()) * cfg.node_base_w;
  return config_.cap_fraction * peak;
}

std::optional<cluster::Assignment> PowerCapScheduler::on_event(
    const ClusterState& state, const SchedulerEvent& event) {
  if (event.kind == EventKind::EpochComplete) return std::nullopt;
  ONES_EXPECT_MSG(state.power != nullptr, "PowerCap requires the driver power model");

  cluster::Assignment next = *state.current;
  double watts = assignment_watts(next, state);
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
