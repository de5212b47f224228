// ONES — the ONline Evolutionary Scheduler (the paper's contribution).
//
// Event-driven (no fixed rescheduling interval): every job arrival, epoch
// completion and job completion advances the evolutionary search one
// iteration against live cluster state, and the best candidate schedule is
// deployed when the update condition holds. Per the paper (§3.2.2 "Update"),
// the schedule is not replaced more often than once per epoch of every
// running job — except that ONES responds immediately when GPUs free up
// (job completions) or new jobs arrive to an under-full cluster, which is
// exactly the responsiveness advantage §2.1 claims over interval-based
// schedulers.
//
// Re-configurations deploy through the elastic batch-size scaling mechanism
// (§3.3), so the cost charged per change is ~1 s instead of tens of seconds.
#pragma once

#include <vector>

#include "core/batch_policy.hpp"
#include "core/evolution.hpp"
#include "predict/progress_predictor.hpp"
#include "sched/scheduler.hpp"

namespace ones::core {

struct OnesConfig {
  EvolutionConfig evolution;
  BatchPolicyConfig policy;
  predict::PredictorConfig predictor;
  /// Ablation: disable the Beta-progress predictor (rho fixed at 1/2).
  bool use_predictor = true;
};

/// The policy front-end every search over the schedule genome shares (ONES
/// and ONES-SA): the §3.3.2 batch-limit state machines, the progress
/// predictor, and the §3.2.2 update condition with its per-epoch pacing.
class OnesPolicy {
 public:
  OnesPolicy(const BatchPolicyConfig& policy, const predict::PredictorConfig& predictor,
             bool use_predictor);

  /// Per-event bookkeeping for the policy state machines and the predictor.
  void observe(const sched::ClusterState& state, const sched::SchedulerEvent& event);
  /// Search context for this event (no predictor under the ablation).
  EvolutionContext context(const sched::ClusterState& state) const;
  /// Update condition: deploy now, or wait for every running job to finish
  /// an epoch since the last deployed schedule.
  bool should_deploy(const sched::ClusterState& state,
                     const sched::SchedulerEvent& event) const;
  /// `next` is about to replace the live schedule: charge the preemptions and
  /// the jobs left waiting to their policies, and restart the pacing.
  void deployed(const sched::ClusterState& state, const cluster::Assignment& next);

  predict::ProgressPredictor& predictor() { return predictor_; }
  const predict::ProgressPredictor& predictor() const { return predictor_; }
  const BatchLimitManager& limits() const { return limits_; }

 private:
  predict::ProgressPredictor predictor_;
  BatchLimitManager limits_;
  bool use_predictor_;
  /// epochs_completed of each job at the moment of the last deploy, indexed
  /// by JobId; -1 for a job that did not run in the deployed schedule.
  std::vector<int> epochs_at_deploy_;
};

/// The part ONES and ONES-SA share: the OnesPolicy front-end and the genome
/// operators. Attaching a metrics registry or profiler forwards it into
/// both, so the two searches expose the same instruments (predictor fits
/// and error samples; the evolution's own spans and counters fire only from
/// `Evolution::step`, which ONES-SA never calls).
class GenomeScheduler : public sched::Scheduler {
 public:
  sched::ScalingMechanism mechanism() const override {
    return sched::ScalingMechanism::Elastic;
  }

  void set_metrics(telemetry::MetricsRegistry* metrics) override {
    sched::Scheduler::set_metrics(metrics);
    evolution_.set_metrics(metrics);
    policy_.predictor().set_metrics(metrics);
  }

  void set_profiler(prof::Profiler* profiler) override {
    sched::Scheduler::set_profiler(profiler);
    evolution_.set_profiler(profiler);
    policy_.predictor().set_profiler(profiler);
  }

  // ---- introspection (tests, examples, benches) ----
  const predict::ProgressPredictor& predictor() const { return policy_.predictor(); }
  const BatchLimitManager& limits() const { return policy_.limits(); }

 protected:
  GenomeScheduler(const BatchPolicyConfig& policy, const predict::PredictorConfig& predictor,
                  bool use_predictor, const EvolutionConfig& evolution)
      : policy_(policy, predictor, use_predictor), evolution_(evolution) {}

  OnesPolicy policy_;
  Evolution evolution_;
};

class OnesScheduler : public GenomeScheduler {
 public:
  explicit OnesScheduler(const OnesConfig& config = {});

  std::string name() const override { return "ONES"; }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override;

  Evolution& evolution() { return evolution_; }
  std::uint64_t evolution_rounds() const { return rounds_; }

 private:
  std::uint64_t rounds_ = 0;
};

}  // namespace ones::core
