#include "core/evolution.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/expect.hpp"
#include "energy/power_model.hpp"

namespace ones::core {

const sched::JobView& EvolutionContext::view(JobId job) const {
  const sched::JobView* v = state->job(job);
  ONES_EXPECT_MSG(v != nullptr, "candidate references a job outside the state");
  return *v;
}

double EvolutionContext::expected_remaining(const sched::JobView& job) const {
  auto it = yrem_cache.find(job.spec.id);
  if (it != yrem_cache.end()) return it->second;
  const double y = predictor != nullptr ? predictor->expected_remaining_samples(job)
                                        : job.dataset_size();
  yrem_cache.emplace(job.spec.id, y);
  return y;
}

namespace {

/// Remove completed (or unknown) jobs from a candidate.
void drop_finished(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  for (JobId j : candidate.running_jobs()) {
    const sched::JobView* v = ctx.state->job(j);
    if (v == nullptr || v->status == sched::JobStatus::Completed) {
      candidate.evict(j);
    }
  }
}

/// Keep only the first `c` GPUs of `job`.
void trim(cluster::Assignment& candidate, JobId job, int c) {
  if (candidate.gpu_count(job) <= c) return;
  const auto gpus = candidate.gpus_of(job);
  for (std::size_t i = gpus.size(); i-- > static_cast<std::size_t>(c);) {
    candidate.clear(gpus[i]);
  }
}

/// Split global batch `b` evenly over the GPUs of `job`, remainder first.
void split(cluster::Assignment& candidate, JobId job, int b) {
  const auto gpus = candidate.gpus_of(job);
  const int c = static_cast<int>(gpus.size());
  const int base = b / c;
  const int rem = b % c;
  for (int i = 0; i < c; ++i) {
    candidate.place(gpus[static_cast<std::size_t>(i)], job, base + (i < rem ? 1 : 0));
  }
}

}  // namespace

EvolutionContext make_context(const sched::ClusterState& state,
                              const predict::ProgressPredictor* predictor,
                              const BatchLimitManager* limits) {
  EvolutionContext ctx;
  ctx.state = &state;
  ctx.predictor = predictor;
  ctx.limits = limits;
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
  RhoMap rho;
  for (const sched::JobView* j : ctx.state->active_jobs()) {
    double r = 0.5;  // predictor ablation: uninformed midpoint
    if (ctx.predictor != nullptr) {
      const auto dist = ctx.predictor->predict(*j);
      r = std::clamp(rng != nullptr ? dist.sample(*rng) : dist.mean(), 1e-3, 1.0 - 1e-3);
    }
    rho[j->spec.id] = r;
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
  for (JobId j : candidate.running_jobs()) {
    const auto& v = ctx.view(j);
    const double x = ctx.state->oracle->estimate_placed_sps(v, candidate);
    auto it = rho.find(j);
    const double r = it != rho.end() ? it->second : 0.5;
    const double rem = remaining_samples(v, r);
    total += rem * static_cast<double>(candidate.gpu_count(j)) / x;
    if (energy_aware) {
      // Predicted joules to finish under this placement, in TDP-GPU-second
      // units so lambda trades them against the SRUF GPU-seconds above.
      const auto gpus = candidate.gpus_of(j);
      std::vector<int> batches;
      batches.reserve(gpus.size());
      for (GpuId g : gpus) batches.push_back(candidate.slot(g).local_batch);
      const double watts = ctx.state->power->job_watts(
          *v.profile, batches, ctx.state->topology->link_profile(gpus));
      total += config_.lambda_energy * (rem / x) * watts /
               ctx.state->power->config().gpu_busy_w;
    }
  }
  // Switching surcharge relative to the live schedule: re-configuring or
  // preempting running jobs is not free, so a challenger must beat the
  // incumbent by at least the cost of deploying it.
  const cluster::Assignment& live = *ctx.state->current;
  for (JobId j : candidate.running_jobs()) {
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
  for (JobId j : candidate.running_jobs()) {
    clamp_job(candidate, j, ctx);
  }
}

void Evolution::fill_idle(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  struct Action {
    bool resume = false;
    JobId job = kInvalidJob;
  };

  for (;;) {
    const auto idle = candidate.idle_gpus();
    if (idle.empty()) return;

    std::vector<Action> actions;
    std::vector<double> weights;

    // Resume options: active jobs absent from this candidate start on one GPU.
    for (const sched::JobView* v : ctx.state->active_jobs()) {
      if (candidate.gpu_count(v->spec.id) > 0) continue;
      const double y = ctx.expected_remaining(*v);
      actions.push_back({true, v->spec.id});
      weights.push_back(std::max(y, 1.0));
    }

    // Scale-up options: running jobs whose limit R still allows more batch,
    // gaining floor(R*c/B) - c more GPUs (Figure 7's utilization-gain
    // sampling).
    for (JobId j : candidate.running_jobs()) {
      const auto& v = ctx.view(j);
      if (!ctx.limits->warmed_up(v)) continue;
      const int r_limit = effective_limit(v, ctx);
      const int b = candidate.global_batch(j);
      const int c = candidate.gpu_count(j);
      if (b >= r_limit) continue;
      const int local = std::max(1, b / c);
      const int target_c =
          std::min(static_cast<int>(r_limit / local), c + static_cast<int>(idle.size()));
      if (target_c <= c) continue;
      const int b2 = std::min(r_limit, local * target_c);

      const double y = ctx.expected_remaining(v);
      const double x1 = ctx.state->oracle->estimate_placed_sps(v, candidate);
      const double x2 = ctx.state->oracle->estimate_sps(
          v, target_c, b2, ctx.state->oracle->can_colocate(target_c));
      const double gain = std::max(y, 1.0) * (static_cast<double>(c) / x1 -
                                              static_cast<double>(target_c) / x2);
      actions.push_back({false, j});
      weights.push_back(std::max(gain, 1e-6));
    }

    // Spread options: when batch limits bind, idle GPUs can still speed a
    // job up by spreading its (fixed) batch over more workers — idle GPUs
    // have no opportunity cost, and Eq. 4 wants the cluster saturated.
    for (JobId j : candidate.running_jobs()) {
      const auto& v = ctx.view(j);
      if (!ctx.limits->warmed_up(v)) continue;
      const int b = candidate.global_batch(j);
      const int c = candidate.gpu_count(j);
      const int target_c = std::min({2 * c, b, c + static_cast<int>(idle.size())});
      if (target_c <= c) continue;
      const double x1 = ctx.state->oracle->estimate_placed_sps(v, candidate);
      const double x2 = ctx.state->oracle->estimate_sps(
          v, target_c, b, ctx.state->oracle->can_colocate(target_c));
      if (x2 <= x1 * 1.02) continue;  // not worth the extra workers
      const double y = ctx.expected_remaining(v);
      const double gain = std::max(y, 1.0) * (1.0 / x1 - 1.0 / x2);
      actions.push_back({false, j});
      weights.push_back(std::max(gain, 1e-6));
    }

    if (actions.empty()) return;  // nothing can use the idle GPUs
    const Action act = actions[rng_.weighted_index(weights)];

    if (act.resume) {
      const auto& v = ctx.view(act.job);
      candidate.place(idle.front(), act.job, start_batch(v, ctx));
    } else {
      const auto& v = ctx.view(act.job);
      const int r_limit = effective_limit(v, ctx);
      const int b = candidate.global_batch(act.job);
      const int c = candidate.gpu_count(act.job);
      const int local = std::max(1, b / c);
      // Grow the worker set: up to the batch-limit headroom (grow-batch
      // action) or up to 2x workers at the same batch (spread action) —
      // whichever the idle pool allows.
      const int grow_c = std::max(static_cast<int>(r_limit / local), std::min(2 * c, b));
      const int target_c = std::min(grow_c, c + static_cast<int>(idle.size()));
      if (target_c <= c) continue;
      for (int k = 0; k < target_c - c; ++k) {
        candidate.place(idle[static_cast<std::size_t>(k)], act.job, 1);
      }
      // Raise the batch toward the limit with the new worker count, then
      // re-split evenly (clamp_job also enforces memory limits).
      split(candidate, act.job,
            std::clamp(std::min(r_limit, local * target_c), target_c,
                       target_c * v.profile->max_local_batch));
      clamp_job(candidate, act.job, ctx);
    }
  }
}

void Evolution::refresh(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  // (1) Clean up GPUs of completed (or unknown) jobs.
  drop_finished(candidate, ctx);

  // (2) Scale down any job whose batch exceeds its current limit R:
  //     drop to floor(R*c/B) GPUs and batch R (paper's rule), then clamp.
  for (JobId j : candidate.running_jobs()) {
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
  {
    auto idle = candidate.idle_gpus();
    std::size_t next = 0;
    for (const sched::JobView* v : fresh) {
      if (next >= idle.size()) break;
      candidate.place(idle[next++], v->spec.id, start_batch(*v, ctx));
    }
  }

  // (4) Fill any remaining idle GPUs (Figure 7).
  fill_idle(candidate, ctx);
}

std::pair<cluster::Assignment, cluster::Assignment> Evolution::crossover(
    const cluster::Assignment& a, const cluster::Assignment& b) {
  ONES_EXPECT(a.num_gpus() == b.num_gpus());
  // Children inherit the parents' health map; the parents never occupy a
  // down GPU, so neither inherited gene can land on one.
  cluster::Assignment c1 = cluster::Assignment::empty_like(a);
  cluster::Assignment c2 = cluster::Assignment::empty_like(a);
  for (int g = 0; g < a.num_gpus(); ++g) {
    const auto& sa = a.slot(g);
    const auto& sb = b.slot(g);
    const bool flip = rng_.bernoulli(0.5);
    const auto& first = flip ? sb : sa;
    const auto& second = flip ? sa : sb;
    if (first.occupied()) c1.place(g, first.job, first.local_batch);
    if (second.occupied()) c2.place(g, second.job, second.local_batch);
  }
  return {std::move(c1), std::move(c2)};
}

void Evolution::mutate(cluster::Assignment& candidate, const EvolutionContext& ctx) {
  for (JobId j : candidate.running_jobs()) {
    if (rng_.bernoulli(config_.mutation_rate)) {
      candidate.evict(j);
    }
  }
  fill_idle(candidate, ctx);
}

cluster::Assignment Evolution::reorder(const cluster::Assignment& candidate) {
  cluster::Assignment packed = cluster::Assignment::empty_like(candidate);
  int next = 0;
  for (JobId j : candidate.running_jobs()) {  // first-occurrence order
    for (GpuId g : candidate.gpus_of(j)) {
      // Pack onto the healthy GPUs in ascending order.
      while (!packed.slot(next).healthy()) ++next;
      packed.place(next++, j, candidate.slot(g).local_batch);
    }
  }
  return packed;
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
        cand = reorder(cand);
        ++reorders;
      }
    }
  }

  std::vector<cluster::Assignment> cands = population_;
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

  if (config_.use_crossover && population_.size() >= 2) {
    const auto pick = [&] {
      return static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(population_.size()) - 1));
    };
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t a = pick(), b = pick();
      if (a == b) b = (b + 1) % population_.size();
      auto [c1, c2] = crossover(population_[a], population_[b]);
      ++crossovers;
      repair(c1, ctx);
      fill_idle(c1, ctx);
      repair(c2, ctx);
      fill_idle(c2, ctx);
      if (config_.use_reorder) {
        c1 = reorder(c1);
        c2 = reorder(c2);
        reorders += 2;
      }
      cands.push_back(std::move(c1));
      cands.push_back(std::move(c2));
    }
  }

  if (config_.use_mutation && !population_.empty()) {
    for (std::size_t i = 0; i < k; ++i) {
      cluster::Assignment m = population_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(population_.size()) - 1))];
      mutate(m, ctx);
      ++mutations;
      repair(m, ctx);
      fill_idle(m, ctx);
      if (config_.use_reorder) {
        m = reorder(m);
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
