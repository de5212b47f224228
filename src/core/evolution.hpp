// Online evolutionary search over cluster schedules (paper §3.2, Figure 5).
//
// The search maintains a population of candidate Assignments (genomes,
// Figure 1). Each iteration:
//   1. *refresh* synchronizes every candidate with real-time job status
//      (clears completed jobs, enforces the batch limits R, gives newly
//      arrived jobs preferential 1-GPU allocations, and fills idle GPUs by
//      probability sampling — Figure 7),
//   2. *uniform crossover* recombines K random parent pairs GPU-by-GPU
//      (Figure 8),
//   3. *uniform mutation* preempts each job of K random candidates with
//      probability theta and refills the freed GPUs (Figure 9),
//   4. *reorder* packs each job's workers contiguously to repair the poor
//      placement the random operators produce (Figure 10),
//   5. candidates are scored by the SRUF objective (Eq. 3/8) under one draw
//      of the predicted progress distributions (Algorithm 1), and the best
//      K survive.
#pragma once

#include <utility>
#include <vector>

#include "cluster/assignment.hpp"
#include "common/rng.hpp"
#include "core/batch_policy.hpp"
#include "predict/progress_predictor.hpp"
#include "prof/profiler.hpp"
#include "sched/oracle.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/registry.hpp"

namespace ones::core {

struct EvolutionConfig {
  /// Population size K; 0 = cluster size (the paper's suggestion).
  std::size_t population_size = 0;
  /// Mutation rate theta: per-job preemption probability.
  double mutation_rate = 0.2;
  // Operator ablation switches (all on = the paper's algorithm).
  bool use_crossover = true;
  bool use_mutation = true;
  bool use_reorder = true;
  /// Score surcharge (GPU-seconds) for re-configuring a running job relative
  /// to the live schedule — reconfiguration is not free (§3.2.2 "Update"),
  /// so candidates must beat the incumbent by at least the switching cost.
  double switch_penalty_s = 15.0;
  /// Score surcharge for preempting a running job (losing its warm state).
  double preempt_penalty_s = 600.0;
  /// JCT-vs-energy blend (DESIGN.md §10): per job, adds
  ///   lambda_energy * T_j * watts_j / gpu_busy_w
  /// (predicted joules in TDP-GPU-second units) to the SRUF score, steering
  /// the search toward fewer, better-utilized workers. 0 — the default —
  /// skips the term entirely, leaving scores bit-identical to the paper's
  /// objective. Not part of the serialized RunSpec: every non-zero setting
  /// MUST be tagged via RunSpec::variant (DESIGN.md §6) or the run cache
  /// will alias it with default ONES.
  double lambda_energy = 0.0;
  std::uint64_t seed = 99;
};

/// Per-event context: live cluster state plus ONES's predictor and limits.
struct EvolutionContext {
  const sched::ClusterState* state = nullptr;
  /// nullptr = predictor ablation (constant rho = 1/2).
  const predict::ProgressPredictor* predictor = nullptr;
  const BatchLimitManager* limits = nullptr;
  /// Lazily-filled expected remaining workloads by JobId, NaN until computed
  /// (the predictor's Beta math is too costly to repeat per fill-loop step).
  mutable std::vector<double> yrem_cache;

  const sched::JobView& view(JobId job) const;
  /// Expected remaining samples of a job (predictor mean, or one dataset
  /// pass when the predictor is ablated), cached per event.
  double expected_remaining(const sched::JobView& job) const;
};

/// Bind the per-event context to a state snapshot (yrem cache all NaN).
EvolutionContext make_context(const sched::ClusterState& state,
                              const predict::ProgressPredictor* predictor,
                              const BatchLimitManager* limits);

/// Progress fraction rho indexed by JobId over id_bound(); 1/2 without a draw.
using RhoMap = std::vector<double>;

class Evolution {
 public:
  explicit Evolution(const EvolutionConfig& config);

  /// Optional metrics registry (not owned; null — the default — disables
  /// instrumentation). `step` records the operator counters
  /// (`ones_crossovers_total`, `ones_mutations_total`, `ones_reorders_total`,
  /// `ones_evolution_steps_total`) and the population fitness gauges
  /// (`ones_best_score`, `ones_population_size`). Never affects the search.
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Optional host-time profiler (not owned; null — the default — disables
  /// the span sites at one branch each). `step` runs under an `evolve.step`
  /// span with nested `evolve.refresh` / `evolve.offspring` /
  /// `evolve.select` operator-phase spans (DESIGN.md §14). Never affects
  /// the search.
  void set_profiler(prof::Profiler* profiler) { profiler_ = profiler; }

  /// One full evolution iteration: refresh -> operators -> select.
  void step(const EvolutionContext& ctx);

  /// Best candidate of the current population under a fresh rho draw
  /// (runs ensure_population first, so it is always callable).
  cluster::Assignment best(const EvolutionContext& ctx);

  const std::vector<cluster::Assignment>& population() const { return population_; }

  // ---- individual pieces (public for unit tests and benchmarks) ----
  void ensure_population(const EvolutionContext& ctx);
  void refresh(cluster::Assignment& candidate, const EvolutionContext& ctx);
  std::pair<cluster::Assignment, cluster::Assignment> crossover(
      const cluster::Assignment& a, const cluster::Assignment& b);
  void mutate(cluster::Assignment& candidate, const EvolutionContext& ctx);
  static cluster::Assignment reorder(const cluster::Assignment& candidate);
  /// `reorder` in place: leaves an already-packed candidate untouched (no
  /// rebuild) and replaces any other with `reorder(candidate)`.
  static void reorder_in_place(cluster::Assignment& candidate);
  /// Fill idle GPUs by probability sampling over resume / scale-up / spread
  /// actions (Figure 7).
  void fill_idle(cluster::Assignment& candidate, const EvolutionContext& ctx);
  /// Enforce feasibility: known jobs only, warm-up single-GPU rule, B <= R,
  /// per-GPU memory limits, even batch splits.
  void repair(cluster::Assignment& candidate, const EvolutionContext& ctx);
  /// SRUF score (Eq. 8); lower is better.
  double score(const cluster::Assignment& candidate, const EvolutionContext& ctx,
               const RhoMap& rho) const;
  /// Algorithm 1, lines 1-3: one progress draw per active job.
  RhoMap sample_rho(const EvolutionContext& ctx) { return draw_rho(ctx, &rng_); }

  /// Deterministic rho at the distribution mean. Deployment decisions use
  /// this (stable incumbent-vs-challenger comparison); the stochastic draws
  /// drive exploration inside the evolution loop.
  RhoMap mean_rho(const EvolutionContext& ctx) const { return draw_rho(ctx, nullptr); }

  /// Predicted remaining workload Y_j (Eq. 7) with a one-epoch floor for
  /// cold jobs (Y_processed = 0 would otherwise make them weightless).
  static double remaining_samples(const sched::JobView& job, double rho);

  /// Effective batch limit: the policy limit R further capped at twice the
  /// job's *live* batch — §3.3.2's "scaled within a limited range at each
  /// time" rule that prevents the Fig 13 loss spike.
  int effective_limit(const sched::JobView& job, const EvolutionContext& ctx) const;

 private:
  std::size_t population_size(const EvolutionContext& ctx) const;
  /// Progress fraction of every active job: drawn from `rng`, or the
  /// distribution mean when `rng` is null (1/2 under the predictor ablation).
  RhoMap draw_rho(const EvolutionContext& ctx, Rng* rng) const;
  /// Scale a job in-place so that B <= limit, keeping local batches even.
  void clamp_job(cluster::Assignment& candidate, JobId job,
                 const EvolutionContext& ctx);
  int start_batch(const sched::JobView& job, const EvolutionContext& ctx) const;

  EvolutionConfig config_;
  Rng rng_;
  std::vector<cluster::Assignment> population_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  prof::Profiler* profiler_ = nullptr;
};

}  // namespace ones::core
