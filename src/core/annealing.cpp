#include "core/annealing.hpp"

#include <cmath>

namespace ones::core {

AnnealingScheduler::AnnealingScheduler(const AnnealingConfig& config)
    : config_(config),
      policy_(config.policy, config.predictor, config.use_predictor),
      toolbox_([&] {
        EvolutionConfig c = config.operators;
        c.population_size = 1;  // unused; the toolbox only runs operators
        return c;
      }()),
      rng_(config.operators.seed ^ 0x5AD0C0DEULL),
      temperature_(config.initial_temperature) {}

std::optional<cluster::Assignment> AnnealingScheduler::on_event(
    const sched::ClusterState& state, const sched::SchedulerEvent& event) {
  policy_.observe(state, event);
  const EvolutionContext ctx = policy_.context(state);

  // (Re)seed the walk from the live schedule, synchronized with reality.
  cluster::Assignment incumbent = *state.current;
  toolbox_.repair(incumbent, ctx);
  toolbox_.refresh(incumbent, ctx);

  const RhoMap rho = toolbox_.mean_rho(ctx);
  double best_score = toolbox_.score(incumbent, ctx, rho);
  cluster::Assignment best = incumbent;
  cluster::Assignment walker = std::move(incumbent);
  double walker_score = best_score;

  for (int i = 0; i < config_.proposals_per_event; ++i) {
    cluster::Assignment proposal = walker;
    toolbox_.mutate(proposal, ctx);
    toolbox_.repair(proposal, ctx);
    if (config_.operators.use_reorder) Evolution::reorder_in_place(proposal);
    const double score = toolbox_.score(proposal, ctx, rho);
    ++proposals_;

    const double delta = score - walker_score;
    if (delta <= 0.0 || rng_.uniform() < std::exp(-delta / temperature_)) {
      walker = std::move(proposal);
      walker_score = score;
      ++accepted_;
      if (walker_score < best_score) {
        best_score = walker_score;
        best = walker;
      }
    }
    temperature_ = std::max(config_.min_temperature, temperature_ * config_.cooling);
  }

  if (!policy_.should_deploy(state, event)) return std::nullopt;
  if (best == *state.current) return std::nullopt;
  policy_.deployed(state, best);
  return best;
}

}  // namespace ones::core
