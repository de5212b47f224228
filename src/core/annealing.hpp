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
  EvolutionConfig operators;  ///< operator toolbox config (mutation rate etc.)
  BatchPolicyConfig policy;
  predict::PredictorConfig predictor;
  bool use_predictor = true;
};

class AnnealingScheduler : public GenomeScheduler {
 public:
  /// Floor of the cooling schedule, in SRUF score units (GPU-seconds).
  static constexpr double kMinTemperature = 5.0;

  explicit AnnealingScheduler(const AnnealingConfig& config = {});

  std::string name() const override { return "ONES-SA"; }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override;

  double temperature() const { return temperature_; }
  std::uint64_t proposals() const { return proposals_; }
  std::uint64_t accepted() const { return accepted_; }

 private:
  AnnealingConfig config_;
  Rng rng_;
  double temperature_;
  std::uint64_t proposals_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace ones::core
