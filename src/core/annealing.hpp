// Simulated-annealing scheduler over the same schedule-genome space.
//
// §3.2 argues evolutionary search suits the scheduling problem better than
// other approximate searches (simulated annealing, tabu, nearest-neighbor,
// ant colony). This scheduler makes that claim testable: it holds the same
// OnesPolicy front-end as ONES (batch-limit policies, progress predictor,
// update condition) and runs the same SRUF score and refresh/repair/fill
// operators, but replaces the population-based evolution with
// single-solution Metropolis annealing whose neighborhood is the *uniform
// mutation* operator. Compare with bench/search_strategies.
#pragma once

#include "core/evolution.hpp"
#include "core/ones_scheduler.hpp"
#include "sched/scheduler.hpp"

namespace ones::core {

struct AnnealingConfig {
  /// Metropolis proposals evaluated per scheduler event.
  int proposals_per_event = 64;
  double initial_temperature = 400.0;  ///< in SRUF score units (GPU-seconds)
  double cooling = 0.995;              ///< multiplicative, per proposal
  double min_temperature = 5.0;
  EvolutionConfig operators;  ///< operator toolbox config (mutation rate etc.)
  BatchPolicyConfig policy;
  predict::PredictorConfig predictor;
  bool use_predictor = true;
};

class AnnealingScheduler : public sched::Scheduler {
 public:
  explicit AnnealingScheduler(const AnnealingConfig& config = {});

  std::string name() const override { return "ONES-SA"; }
  sched::ScalingMechanism mechanism() const override {
    return sched::ScalingMechanism::Elastic;
  }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override;

  double temperature() const { return temperature_; }
  std::uint64_t proposals() const { return proposals_; }
  std::uint64_t accepted() const { return accepted_; }

 private:
  AnnealingConfig config_;
  OnesPolicy policy_;
  Evolution toolbox_;  ///< operator implementations (population unused)
  Rng rng_;
  double temperature_;
  std::uint64_t proposals_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace ones::core
