#include "core/annealing.hpp"

#include <cmath>
#include <vector>

namespace ones::core {

namespace {

/// Metropolis proposals evaluated per scheduler event.
constexpr int kProposalsPerEvent = 64;
constexpr double kInitialTemperature = 400.0;  ///< in SRUF score units (GPU-seconds)
constexpr double kCooling = 0.995;              ///< multiplicative, per proposal

}  // namespace

AnnealingScheduler::AnnealingScheduler(const AnnealingConfig& config)
    : GenomeScheduler(config.policy, config.predictor, config.use_predictor,
                      [&] {
                        EvolutionConfig c = config.operators;
                        c.population_size = 1;  // unused; evolution_ only runs operators
                        return c;
                      }()),
      config_(config),
      rng_(config.operators.seed ^ 0x5AD0C0DEULL),
      temperature_(kInitialTemperature) {}

std::optional<cluster::Assignment> AnnealingScheduler::on_event(
    const sched::ClusterState& state, const sched::SchedulerEvent& event) {
  policy_.observe(state, event);
  const EvolutionContext ctx = policy_.context(state);

  // (Re)seed the walk from the live schedule, synchronized with reality.
  cluster::Assignment incumbent = *state.current;
  evolution_.repair(incumbent, ctx);
  evolution_.refresh(incumbent, ctx);

  const std::vector<double> remaining =
      Evolution::remaining_by_job(ctx, evolution_.mean_rho(ctx));
  double best_score = evolution_.score_remaining(incumbent, ctx, remaining);
  cluster::Assignment best = incumbent;
  cluster::Assignment walker = std::move(incumbent);
  double walker_score = best_score;

  for (int i = 0; i < kProposalsPerEvent; ++i) {
    cluster::Assignment proposal = walker;
    evolution_.mutate(proposal, ctx);
    evolution_.repair(proposal, ctx);
    if (config_.operators.use_reorder) Evolution::reorder_in_place(proposal);
    const double score = evolution_.score_remaining(proposal, ctx, remaining);
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
    temperature_ = std::max(kMinTemperature, temperature_ * kCooling);
  }

  if (!policy_.should_deploy(state, event)) return std::nullopt;
  if (best == *state.current) return std::nullopt;
  policy_.deployed(state, best);
  return best;
}

}  // namespace ones::core
