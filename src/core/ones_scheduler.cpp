#include "core/ones_scheduler.hpp"

#include "common/expect.hpp"

namespace ones::core {

OnesPolicy::OnesPolicy(const BatchPolicyConfig& policy,
                       const predict::PredictorConfig& predictor, bool use_predictor)
    : predictor_(predictor), limits_(policy), use_predictor_(use_predictor) {}

void OnesPolicy::observe(const sched::ClusterState& state,
                         const sched::SchedulerEvent& event) {
  switch (event.kind) {
    case sched::EventKind::JobArrival: {
      const sched::JobView* v = state.job(event.job);
      ONES_EXPECT(v != nullptr);
      limits_.on_job_arrival(*v, state.now);
      break;
    }
    case sched::EventKind::EpochComplete: {
      const sched::JobView* v = state.job(event.job);
      ONES_EXPECT(v != nullptr);
      limits_.on_epoch_complete(*v);
      break;
    }
    case sched::EventKind::JobComplete: {
      const sched::JobView* v = state.job(event.job);
      ONES_EXPECT(v != nullptr);
      // Aborted jobs never converged; their truncated histories would teach
      // the predictor wrong totals (§2.1's abnormal-ending pitfall).
      if (use_predictor_ && !v->aborted) predictor_.observe_completed_job(*v);
      limits_.on_completed(event.job);
      break;
    }
    case sched::EventKind::Timer:
      break;
    case sched::EventKind::CapacityChange:
      break;  // no per-job bookkeeping; the search sees the new health map
  }
}

EvolutionContext OnesPolicy::context(const sched::ClusterState& state) const {
  return make_context(state, use_predictor_ ? &predictor_ : nullptr, &limits_);
}

bool OnesPolicy::should_deploy(const sched::ClusterState& state,
                               const sched::SchedulerEvent& event) const {
  // Immediate response to workload changes: freed GPUs (completion) and new
  // jobs must not wait for the per-epoch pacing (§2.1's critique of
  // interval-based schedulers).
  if (event.kind == sched::EventKind::JobComplete ||
      event.kind == sched::EventKind::JobArrival ||
      event.kind == sched::EventKind::CapacityChange) {
    return true;
  }
  if (state.current->idle_count() > 0 && !state.waiting_jobs().empty()) {
    return true;
  }
  // Pacing rule (§3.2.2 "Update"): every running job must have completed at
  // least one epoch since the last deployed schedule.
  for (const sched::JobView* v : state.running_jobs()) {
    const auto id = static_cast<std::size_t>(v->spec.id);
    if (id < epochs_at_deploy_.size() && v->epochs_completed <= epochs_at_deploy_[id]) {
      return false;
    }
  }
  return true;
}

void OnesPolicy::deployed(const sched::ClusterState& state,
                          const cluster::Assignment& next) {
  // Resume / preemption policy bookkeeping against the schedule about to be
  // deployed.
  for (JobId j : state.current->running_jobs()) {
    if (next.gpu_count(j) == 0) {
      const sched::JobView* v = state.job(j);
      ONES_EXPECT(v != nullptr);
      if (v->status != sched::JobStatus::Completed) {
        limits_.on_preempted(*v, state.current->global_batch(j));
      }
    }
  }
  for (const sched::JobView* v : state.waiting_jobs()) {
    if (next.gpu_count(v->spec.id) == 0) {
      limits_.on_left_waiting(*v);  // asked for service, still waiting
    }
  }

  epochs_at_deploy_.assign(state.id_bound(), -1);
  for (JobId j : next.running_jobs()) {
    const sched::JobView* v = state.job(j);
    ONES_EXPECT(v != nullptr);
    epochs_at_deploy_[static_cast<std::size_t>(j)] = v->epochs_completed;
  }
}

OnesScheduler::OnesScheduler(const OnesConfig& config)
    : GenomeScheduler(config.policy, config.predictor, config.use_predictor,
                      config.evolution) {}

std::optional<cluster::Assignment> OnesScheduler::on_event(
    const sched::ClusterState& state, const sched::SchedulerEvent& event) {
  policy_.observe(state, event);
  const EvolutionContext ctx = policy_.context(state);
  evolution_.step(ctx);
  ++rounds_;
  if (metrics_ != nullptr) metrics_->counter("ones_evolution_rounds_total").add();
  if (trace_sink_ != nullptr) {
    // The detail keeps its per-event round count, pinned by the golden trace.
    trace_sink_->on_record({.kind = trace::RecordKind::EvolutionStep,
                            .t = state.now,
                            .count = rounds_,
                            .detail = "+1 rounds"});
  }

  if (!policy_.should_deploy(state, event)) return std::nullopt;
  cluster::Assignment best = evolution_.best(ctx);
  if (best == *state.current) return std::nullopt;
  policy_.deployed(state, best);
  return best;
}

}  // namespace ones::core
