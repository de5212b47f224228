#include "core/evolution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>

#include "common/expect.hpp"
#include "energy/power_model.hpp"

namespace ones::core {

const sched::JobView& EvolutionContext::view(JobId job) const {
  const sched::JobView* v = state->job(job);
  ONES_EXPECT_MSG(v != nullptr, "candidate references a job outside the state");
  return *v;
}

double EvolutionContext::expected_remaining(const sched::JobView& job) const {
  double& y = yrem_cache[static_cast<std::size_t>(job.spec.id)];
  if (std::isnan(y)) {
    y = predictor != nullptr ? predictor->expected_remaining_samples(job)
                             : job.dataset_size();
  }
  return y;
}

namespace {

/// Keep only the first `c` GPUs of `job`.
void trim(cluster::Assignment& candidate, JobId job, int c) {
  // Clear from the highest GPU down. Each clear rewrites (or, at c == 0,
  // drops) the job's list, so it is read afresh every time.
  for (int have = candidate.gpu_count(job); have > c; --have) {
    candidate.clear(candidate.gpus_of(job).back());
  }
}

/// Split global batch `b` evenly over the GPUs of `job`, remainder first.
/// Re-placing the job's own GPUs changes only batches, so the GPU view
/// stays valid throughout.
void split(cluster::Assignment& candidate, JobId job, int b) {
  const auto gpus = candidate.gpus_of(job);
  const int c = static_cast<int>(gpus.size());
  const int base = b / c;
  const int rem = b % c;
  for (int i = 0; i < c; ++i) {
    candidate.place(gpus[static_cast<std::size_t>(i)], job, base + (i < rem ? 1 : 0));
  }
}

/// One fill_idle option: resume an absent job on one GPU, or grow a running
/// one (scale-up or spread).
struct FillAction {
  bool resume = false;
  JobId job = kInvalidJob;
};

/// fill_idle's price inputs for one running job, valid while its stamp is
/// the current call's (DESIGN.md §2). Between two draws of one call only the
/// acting job's worker set changes, so the actor's entry is the only one
/// invalidated; each x2 is re-estimated only when the `c + idle` clamp
/// moves its target.
struct FillPrice {
  std::uint64_t stamp = 0;
  bool warmed = false;
  int r_limit = 0;   ///< effective_limit (set only when warmed)
  int b = 0;         ///< global batch B in the candidate
  int c = 0;         ///< GPU count in the candidate
  double y = 0.0;    ///< max(expected remaining samples, 1)
  double x1 = 0.0;   ///< throughput of the job's current placement
  int up_c = 0;      ///< scale-up target priced by `up_x2` (0 = none)
  int up_b = 0;
  double up_x2 = 0.0;
  int spread_c = 0;  ///< spread target priced by `spread_x2` (0 = none)
  double spread_x2 = 0.0;
};

/// Buffers of fill_idle, score and the job-list helpers, reused so that
/// none of them allocates once warm. Nothing is read across calls: prices
/// carry the stamp of the call that computed them, and the lists are
/// cleared on entry. One set per thread, not per Evolution: a call uses
/// them only while it runs, and the scheduler object keeps its size
/// (perfbench's `ones_32gpu` set-up time swings with that size through
/// glibc heap trimming; ROADMAP.md).
struct Scratch {
  std::vector<FillPrice> prices;  ///< by JobId
  std::uint64_t stamp = 0;
  std::vector<JobId> resume;      ///< absent active jobs, active_jobs() order
  std::vector<FillAction> actions;
  std::vector<double> weights;
  std::vector<int> batches;       ///< score's per-job local batches
  std::vector<JobId> running;     ///< running_copy's job order
  std::vector<JobId> finished;    ///< drop_finished's evictions
};
thread_local Scratch scratch;

/// A copy of the candidate's job order, for loops that mutate the candidate
/// (which invalidates the running_jobs() view). Valid until the next call.
const std::vector<JobId>& running_copy(const cluster::Assignment& candidate) {
  const auto jobs = candidate.running_jobs();
  scratch.running.assign(jobs.begin(), jobs.end());
  return scratch.running;
}

/// Remove completed (or unknown) jobs from a candidate.
void drop_finished(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  scratch.finished.clear();
  for (JobId j : candidate.running_jobs()) {
    const sched::JobView* v = ctx.state->job(j);
    if (v == nullptr || v->status == sched::JobStatus::Completed) scratch.finished.push_back(j);
  }
  for (JobId j : scratch.finished) candidate.evict(j);
}

/// The current fill_idle call's price of running job `job`, computed on
/// first use.
FillPrice& fill_price(const Evolution& evo, const cluster::Assignment& candidate,
                      JobId job, const EvolutionContext& ctx) {
  FillPrice& p = scratch.prices[static_cast<std::size_t>(job)];
  if (p.stamp == scratch.stamp) return p;
  // A price reads only the job's own worker set, its limits and the
  // per-event context, so it stays exact until the job itself acts.
  p = FillPrice{};
  p.stamp = scratch.stamp;
  const auto& v = ctx.view(job);
  p.warmed = ctx.limits->warmed_up(v);
  if (!p.warmed) return p;  // offers no scale-up or spread option
  p.r_limit = evo.effective_limit(v, ctx);
  p.b = candidate.global_batch(job);
  p.c = candidate.gpu_count(job);
  p.y = std::max(ctx.expected_remaining(v), 1.0);
  p.x1 = ctx.state->oracle->estimate_placed_sps(v, candidate);
  return p;
}

}  // namespace

EvolutionContext make_context(const sched::ClusterState& state,
                              const predict::ProgressPredictor* predictor,
                              const BatchLimitManager* limits) {
  EvolutionContext ctx;
  ctx.state = &state;
  ctx.predictor = predictor;
  ctx.limits = limits;
  ctx.yrem_cache.assign(state.id_bound(), std::numeric_limits<double>::quiet_NaN());
  return ctx;
}

Evolution::Evolution(const EvolutionConfig& config) : config_(config), rng_(config.seed) {}

std::size_t Evolution::population_size(const EvolutionContext& ctx) const {
  if (config_.population_size > 0) return config_.population_size;
  return static_cast<std::size_t>(ctx.state->topology->total_gpus());
}

int Evolution::start_batch(const sched::JobView& job, const EvolutionContext& ctx) const {
  const int r = effective_limit(job, ctx);
  return std::max(1, std::min(r, job.profile->max_local_batch));
}

double Evolution::remaining_samples(const sched::JobView& job, double rho) {
  // One-epoch floor: a job that has processed nothing would otherwise have
  // Y_processed * (1/rho - 1) == 0 and be invisible to the objective.
  const double y_proc = std::max(job.samples_processed, job.dataset_size());
  rho = std::clamp(rho, 1e-3, 1.0 - 1e-3);
  return y_proc * (1.0 / rho - 1.0);
}

int Evolution::effective_limit(const sched::JobView& job,
                               const EvolutionContext& ctx) const {
  int r = ctx.limits->limit(job);
  if (job.status == sched::JobStatus::Running && job.global_batch > 0) {
    // Gradual-scaling rule: at most one doubling per re-configuration.
    r = std::min(r, 2 * job.global_batch);
  }
  return std::max(r, 1);
}

RhoMap Evolution::draw_rho(const EvolutionContext& ctx, Rng* rng) const {
  RhoMap rho(ctx.state->id_bound(), 0.5);
  for (const sched::JobView* j : ctx.state->active_jobs()) {
    double r = 0.5;  // predictor ablation: uninformed midpoint
    if (ctx.predictor != nullptr) {
      const auto dist = ctx.predictor->predict(*j);
      r = std::clamp(rng != nullptr ? dist.sample(*rng) : dist.mean(), 1e-3, 1.0 - 1e-3);
    }
    rho[static_cast<std::size_t>(j->spec.id)] = r;
  }
  return rho;
}

double Evolution::score(const cluster::Assignment& candidate, const EvolutionContext& ctx,
                        const RhoMap& rho) const {
  // Eq. 8: sum_j  Y_processed_j * c_j / X_j * (1/rho_j - 1)
  //       = sum_j  Y_remaining_j * c_j / X_j  =  sum_j  T_j * c_j  (SRUF).
  double total = 0.0;
  const bool energy_aware =
      config_.lambda_energy != 0.0 && ctx.state->power != nullptr;
  const auto jobs = candidate.running_jobs();
  for (JobId j : jobs) {
    const auto& v = ctx.view(j);
    const double x = ctx.state->oracle->estimate_placed_sps(v, candidate);
    const double rem = remaining_samples(v, rho[static_cast<std::size_t>(j)]);
    total += rem * static_cast<double>(candidate.gpu_count(j)) / x;
    if (energy_aware) {
      // Predicted joules to finish under this placement, in TDP-GPU-second
      // units so lambda trades them against the SRUF GPU-seconds above.
      const auto gpus = candidate.gpus_of(j);
      scratch.batches.clear();
      for (GpuId g : gpus) scratch.batches.push_back(candidate.slot(g).local_batch);
      const double watts = ctx.state->power->job_watts(
          *v.profile, scratch.batches, ctx.state->topology->link_profile(gpus));
      total += config_.lambda_energy * (rem / x) * watts /
               ctx.state->power->config().gpu_busy_w;
    }
  }
  // Switching surcharge relative to the live schedule: re-configuring or
  // preempting running jobs is not free, so a challenger must beat the
  // incumbent by at least the cost of deploying it.
  const cluster::Assignment& live = *ctx.state->current;
  for (JobId j : jobs) {
    const auto& v = ctx.view(j);
    if (v.status != sched::JobStatus::Running) continue;  // resume charged below
    if (!live.same_placement(candidate, j)) {
      total += config_.switch_penalty_s * static_cast<double>(candidate.gpu_count(j));
    }
  }
  for (JobId j : live.running_jobs()) {
    if (candidate.gpu_count(j) == 0) {
      total += config_.preempt_penalty_s * static_cast<double>(live.gpu_count(j));
    }
  }
  return total;
}

void Evolution::clamp_job(cluster::Assignment& candidate, JobId job,
                          const EvolutionContext& ctx) {
  const int c = candidate.gpu_count(job);
  if (c == 0) return;
  const auto& v = ctx.view(job);
  const int r_limit = effective_limit(v, ctx);

  // Start policy: one GPU until warmed up; every worker needs a sample.
  const int target_c = std::max(1, std::min(ctx.limits->warmed_up(v) ? c : 1, r_limit));
  trim(candidate, job, target_c);

  const int max_b = std::min(r_limit, target_c * v.profile->max_local_batch);
  // Even re-split (repairs crossover children with lopsided inherited genes).
  split(candidate, job, std::clamp(candidate.global_batch(job), target_c, max_b));
}

void Evolution::repair(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  drop_finished(candidate, ctx);
  for (JobId j : running_copy(candidate)) {
    clamp_job(candidate, j, ctx);
  }
}

void Evolution::fill_idle(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  if (candidate.idle_count() == 0) return;
  // A new stamp invalidates every price of the previous call at once.
  ++scratch.stamp;
  if (scratch.prices.size() < ctx.state->id_bound()) scratch.prices.resize(ctx.state->id_bound());
  const sched::ThroughputOracle& oracle = *ctx.state->oracle;

  // Resume options: active jobs absent from this candidate start on one GPU.
  // Draws never evict a job, so the list only loses the jobs it resumes.
  scratch.resume.clear();
  for (const sched::JobView* v : ctx.state->active_jobs()) {
    if (candidate.gpu_count(v->spec.id) == 0) scratch.resume.push_back(v->spec.id);
  }

  // Each iteration places workers on the lowest idle GPUs, so
  // `candidate.idle_gpus().front()` walks the same GPUs a snapshot of the
  // idle list would.
  for (;;) {
    const int idle = candidate.idle_count();
    if (idle == 0) return;
    scratch.actions.clear();
    scratch.weights.clear();

    for (const JobId j : scratch.resume) {
      scratch.actions.push_back({true, j});
      scratch.weights.push_back(std::max(ctx.expected_remaining(ctx.view(j)), 1.0));
    }

    // Scale-up options: running jobs whose limit R still allows more batch,
    // gaining floor(R*c/B) - c more GPUs (Figure 7's utilization-gain
    // sampling).
    const auto running = candidate.running_jobs();  // no mutation until the draw
    for (const JobId j : running) {
      FillPrice& p = fill_price(*this, candidate, j, ctx);
      if (!p.warmed || p.b >= p.r_limit) continue;
      const int local = std::max(1, p.b / p.c);
      const int target_c = std::min(static_cast<int>(p.r_limit / local), p.c + idle);
      if (target_c <= p.c) continue;
      const int b2 = std::min(p.r_limit, local * target_c);
      if (p.up_c != target_c || p.up_b != b2) {
        p.up_c = target_c;
        p.up_b = b2;
        p.up_x2 = oracle.estimate_sps(ctx.view(j), target_c, b2,
                                      oracle.can_colocate(target_c));
      }
      const double gain = p.y * (static_cast<double>(p.c) / p.x1 -
                                 static_cast<double>(target_c) / p.up_x2);
      scratch.actions.push_back({false, j});
      scratch.weights.push_back(std::max(gain, 1e-6));
    }

    // Spread options: when batch limits bind, idle GPUs can still speed a
    // job up by spreading its (fixed) batch over more workers — idle GPUs
    // have no opportunity cost, and Eq. 4 wants the cluster saturated.
    for (const JobId j : running) {
      FillPrice& p = fill_price(*this, candidate, j, ctx);
      if (!p.warmed) continue;
      const int target_c = std::min({2 * p.c, p.b, p.c + idle});
      if (target_c <= p.c) continue;
      if (p.spread_c != target_c) {
        p.spread_c = target_c;
        p.spread_x2 = oracle.estimate_sps(ctx.view(j), target_c, p.b,
                                          oracle.can_colocate(target_c));
      }
      if (p.spread_x2 <= p.x1 * 1.02) continue;  // not worth the extra workers
      const double gain = p.y * (1.0 / p.x1 - 1.0 / p.spread_x2);
      scratch.actions.push_back({false, j});
      scratch.weights.push_back(std::max(gain, 1e-6));
    }

    if (scratch.actions.empty()) return;  // nothing can use the idle GPUs
    const std::size_t pick = rng_.weighted_index(scratch.weights);
    const FillAction act = scratch.actions[pick];
    const auto& v = ctx.view(act.job);

    if (act.resume) {
      candidate.place(candidate.idle_gpus().front(), act.job, start_batch(v, ctx));
      // Resume options come first, in scratch.resume order.
      scratch.resume.erase(scratch.resume.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const int r_limit = effective_limit(v, ctx);
      const int b = candidate.global_batch(act.job);
      const int c = candidate.gpu_count(act.job);
      const int local = std::max(1, b / c);
      // Grow the worker set: up to the batch-limit headroom (grow-batch
      // action) or up to 2x workers at the same batch (spread action) —
      // whichever the idle pool allows.
      const int grow_c = std::max(static_cast<int>(r_limit / local), std::min(2 * c, b));
      const int target_c = std::min(grow_c, c + idle);
      // Every priced grow option targets more than c GPUs, and grow_c is at
      // least either option's target, so a stale price is the only way here.
      ONES_EXPECT_MSG(target_c > c, "fill_idle drew a grow option for job " +
                                        std::to_string(act.job) +
                                        " that adds no GPU (stale price?)");
      for (int k = 0; k < target_c - c; ++k) {
        candidate.place(candidate.idle_gpus().front(), act.job, 1);
      }
      // Raise the batch toward the limit with the new worker count, then
      // re-split evenly (clamp_job also enforces memory limits).
      split(candidate, act.job,
            std::clamp(std::min(r_limit, local * target_c), target_c,
                       target_c * v.profile->max_local_batch));
      clamp_job(candidate, act.job, ctx);
    }
    // The actor's worker set changed: re-price it on its next use.
    scratch.prices[static_cast<std::size_t>(act.job)].stamp = 0;
  }
}

void Evolution::refresh(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  // (1) Clean up GPUs of completed (or unknown) jobs.
  drop_finished(candidate, ctx);

  // (2) Scale down any job whose batch exceeds its current limit R:
  //     drop to floor(R*c/B) GPUs and batch R (paper's rule), then clamp.
  for (JobId j : running_copy(candidate)) {
    const auto& v = ctx.view(j);
    const int r_limit = effective_limit(v, ctx);
    const int b = candidate.global_batch(j);
    if (r_limit < b) {
      const int c = candidate.gpu_count(j);
      const int target_c =
          std::max(1, static_cast<int>(static_cast<std::int64_t>(r_limit) * c / b));
      trim(candidate, j, target_c);
      split(candidate, j, target_c * (std::max(r_limit, target_c) / target_c));
    }
    clamp_job(candidate, j, ctx);
  }

  // (3) Preferential allocation of newly arrived jobs (never ran, absent
  //     from this candidate): one GPU each; if the candidate lacks idle
  //     GPUs, take them from the jobs with the largest executed time.
  std::vector<const sched::JobView*> fresh;
  for (const sched::JobView* v : ctx.state->active_jobs()) {
    if (v->samples_processed > 0.0) continue;
    if (v->epochs_completed > 0) continue;
    if (candidate.gpu_count(v->spec.id) > 0) continue;
    fresh.push_back(v);
  }
  const int want =
      std::min<int>(static_cast<int>(fresh.size()), candidate.healthy_count());
  while (candidate.idle_count() < want) {
    // Victim: the candidate job with the largest T_processed.
    JobId victim = kInvalidJob;
    double max_exec = -1.0;
    for (JobId j : candidate.running_jobs()) {
      const auto& v = ctx.view(j);
      if (v.exec_time_s > max_exec) {
        max_exec = v.exec_time_s;
        victim = j;
      }
    }
    if (victim == kInvalidJob) break;
    const int c = candidate.gpu_count(victim);
    trim(candidate, victim, c - 1);
    if (c > 1) clamp_job(candidate, victim, ctx);
  }
  for (const sched::JobView* v : fresh) {
    if (candidate.idle_count() == 0) break;
    candidate.place(candidate.idle_gpus().front(), v->spec.id, start_batch(*v, ctx));
  }

  // (4) Fill any remaining idle GPUs (Figure 7).
  fill_idle(candidate, ctx);
}

std::pair<cluster::Assignment, cluster::Assignment> Evolution::crossover(
    const cluster::Assignment& a, const cluster::Assignment& b) {
  ONES_EXPECT(a.num_gpus() == b.num_gpus());
  // Children inherit `a`'s health map; the parents never occupy a down GPU,
  // so neither inherited gene can land on one (from_slots checks).
  const auto n = static_cast<std::size_t>(a.num_gpus());
  std::vector<cluster::Slot> s1(n), s2(n);
  for (std::size_t g = 0; g < n; ++g) {
    const auto& sa = a.slot(static_cast<GpuId>(g));
    const auto& sb = b.slot(static_cast<GpuId>(g));
    const bool flip = rng_.bernoulli(0.5);
    const auto& first = flip ? sb : sa;
    const auto& second = flip ? sa : sb;
    s1[g] = {first.job, first.local_batch, sa.health};
    s2[g] = {second.job, second.local_batch, sa.health};
  }
  return {cluster::Assignment::from_slots(std::move(s1)),
          cluster::Assignment::from_slots(std::move(s2))};
}

void Evolution::mutate(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  std::vector<JobId> preempted;
  for (JobId j : candidate.running_jobs()) {
    if (rng_.bernoulli(config_.mutation_rate)) preempted.push_back(j);
  }
  for (JobId j : preempted) candidate.evict(j);
  fill_idle(candidate, ctx);
}

cluster::Assignment Evolution::reorder(const cluster::Assignment& candidate) {
  std::vector<cluster::Slot> packed(static_cast<std::size_t>(candidate.num_gpus()));
  for (const GpuId g : candidate.unhealthy_gpus()) {
    packed[static_cast<std::size_t>(g)].health = candidate.health(g);
  }
  std::size_t next = 0;
  for (JobId j : candidate.running_jobs()) {  // first-occurrence order
    for (GpuId g : candidate.gpus_of(j)) {
      // Pack onto the healthy GPUs in ascending order.
      while (next < packed.size() && !packed[next].healthy()) ++next;
      ONES_EXPECT_MSG(next < packed.size(), "more workers than healthy GPUs");
      packed[next].job = j;
      packed[next++].local_batch = candidate.slot(g).local_batch;
    }
  }
  return cluster::Assignment::from_slots(std::move(packed));
}

void Evolution::reorder_in_place(cluster::Assignment& candidate) {
  // Packed = each job's workers already sit on the next healthy GPUs, jobs
  // in running_jobs() order: exactly the slots reorder() would rebuild.
  const std::vector<GpuId>& down = candidate.unhealthy_gpus();
  auto next_down = down.begin();
  GpuId next = 0;
  for (const JobId j : candidate.running_jobs()) {
    for (const GpuId g : candidate.gpus_of(j)) {
      for (; next_down != down.end() && *next_down == next; ++next_down) ++next;
      if (g != next) {
        candidate = reorder(candidate);
        return;
      }
      ++next;
    }
  }
}

void Evolution::ensure_population(const EvolutionContext& ctx) {
  const std::size_t k = population_size(ctx);
  const int n = ctx.state->topology->total_gpus();
  if (!population_.empty() && population_.front().num_gpus() == n &&
      population_.size() == k) {
    return;
  }
  population_.clear();
  population_.reserve(k);
  const std::vector<const sched::JobView*> active = ctx.state->active_jobs();
  for (std::size_t i = 0; i < k; ++i) {
    cluster::Assignment cand = cluster::Assignment::empty_like(*ctx.state->current);
    if (!active.empty()) {
      // The paper's simple initialization: a random job on each healthy GPU.
      for (int g = 0; g < n; ++g) {
        if (!cand.slot(g).healthy()) continue;
        const auto* v = active[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1))];
        cand.place(g, v->spec.id, 1);
      }
      repair(cand, ctx);
    }
    refresh(cand, ctx);
    population_.push_back(std::move(cand));
  }
}

void Evolution::step(const EvolutionContext& ctx) {
  // One evolution generation (DESIGN.md §14): phase spans cover refresh,
  // offspring production (crossover + mutation + repair/reorder) and
  // selection, nested under `evolve.step`.
  const prof::Scope step_span(profiler_, "evolve.step");
  ensure_population(ctx);
  const std::size_t k = population_size(ctx);
  std::uint64_t crossovers = 0, mutations = 0, reorders = 0;

  // Refresh the whole population against real-time status (elitism: the
  // refreshed originals compete with their offspring). Health first: cached
  // genomes may predate a failure/repair (DESIGN.md §13).
  {
    const prof::Scope refresh_span(profiler_, "evolve.refresh");
    for (auto& cand : population_) {
      cand.sync_health(*ctx.state->current);
      refresh(cand, ctx);
      if (config_.use_reorder) {
        reorder_in_place(cand);
        ++reorders;
      }
    }
  }

  // The refreshed population moves in as the first candidates; parents are
  // read from that prefix. Candidate order (population, incumbent, crossover
  // pairs, mutants) fixes how selection breaks score ties.
  const std::size_t parents = population_.size();
  std::vector<cluster::Assignment> cands = std::move(population_);
  cands.reserve(4 * k + 1);

  std::optional<prof::Scope> offspring_span;
  if (profiler_ != nullptr) offspring_span.emplace(profiler_, "evolve.offspring");
  // The incumbent (live schedule) always competes: unless a challenger beats
  // it including switching costs, ONES keeps the cluster undisturbed.
  {
    cluster::Assignment incumbent = *ctx.state->current;
    repair(incumbent, ctx);
    fill_idle(incumbent, ctx);
    cands.push_back(std::move(incumbent));
  }

  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(parents) - 1));
  };
  if (config_.use_crossover && parents >= 2) {
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t a = pick(), b = pick();
      if (a == b) b = (b + 1) % parents;
      auto [c1, c2] = crossover(cands[a], cands[b]);
      ++crossovers;
      repair(c1, ctx);
      fill_idle(c1, ctx);
      repair(c2, ctx);
      fill_idle(c2, ctx);
      if (config_.use_reorder) {
        reorder_in_place(c1);
        reorder_in_place(c2);
        reorders += 2;
      }
      cands.push_back(std::move(c1));
      cands.push_back(std::move(c2));
    }
  }

  if (config_.use_mutation && parents > 0) {
    for (std::size_t i = 0; i < k; ++i) {
      cluster::Assignment m = cands[pick()];
      mutate(m, ctx);
      ++mutations;
      repair(m, ctx);
      fill_idle(m, ctx);
      if (config_.use_reorder) {
        reorder_in_place(m);
        ++reorders;
      }
      cands.push_back(std::move(m));
    }
  }

  offspring_span.reset();

  // Selection: score every candidate under one rho draw (Algorithm 1) and
  // keep the best K.
  const prof::Scope select_span(profiler_, "evolve.select");
  const RhoMap rho = sample_rho(ctx);
  std::vector<double> scores(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) scores[i] = score(cands[i], ctx, rho);
  std::vector<std::size_t> order(cands.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });

  std::vector<cluster::Assignment> next;
  next.reserve(k);
  for (std::size_t i = 0; i < order.size() && next.size() < k; ++i) {
    next.push_back(std::move(cands[order[i]]));
  }
  population_ = std::move(next);

  if (metrics_ != nullptr) {
    metrics_->counter("ones_evolution_steps_total").add();
    metrics_->counter("ones_crossovers_total").add(static_cast<double>(crossovers));
    metrics_->counter("ones_mutations_total").add(static_cast<double>(mutations));
    metrics_->counter("ones_reorders_total").add(static_cast<double>(reorders));
    metrics_->gauge("ones_best_score").set(scores[order[0]]);
    metrics_->gauge("ones_population_size").set(static_cast<double>(population_.size()));
  }
}

cluster::Assignment Evolution::best(const EvolutionContext& ctx) {
  ensure_population(ctx);
  for (auto& cand : population_) {
    cand.sync_health(*ctx.state->current);
    refresh(cand, ctx);
  }
  const RhoMap rho = mean_rho(ctx);
  std::size_t best_i = 0;
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < population_.size(); ++i) {
    const double s = score(population_[i], ctx, rho);
    if (s < best_s) {
      best_s = s;
      best_i = i;
    }
  }
  return population_[best_i];
}

}  // namespace ones::core
