// Reference ONES evolution for the lock-step differential test
// (tests/evolution_equivalence_test.cpp) and the oracle bit-identity test
// (tests/sched_test.cpp).
//
// This is the evolutionary search as it stood before its hot paths were made
// allocation-free, kept nearly verbatim and compiled into tests only:
//   * the vector-based throughput math: a per-worker batch vector, an
//     `even_split` vector for even estimates, and a link profile decided by
//     counting distinct nodes in a hash set;
//   * the per-worker power formula, which re-derives the step time from the
//     whole batch vector for every worker;
//   * a throughput oracle that copies the job's GPU list and batch vector on
//     every call;
//   * an `Evolution` that copies every derived view it reads, and builds
//     crossover and reorder children with one `place` per GPU on an
//     assignment started from `Assignment(n)` plus `set_health`.
// It is the executable specification the production code must match
// bit-for-bit: same RNG draw sequence, same populations, same scores. Do not
// "improve" it; its value is that it stays simple and obviously correct.
// Metrics and profiler hooks are left out: they never affect the search.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/evolution.hpp"
#include "energy/power_model.hpp"
#include "model/task.hpp"
#include "sched/oracle.hpp"

namespace ones::testing {

// ---------------------------------------------------------------------------
// Vector-based throughput math.

inline double ref_step_time_s(const model::TaskProfile& profile,
                              const std::vector<int>& local_batches,
                              const cluster::LinkProfile& link) {
  ONES_EXPECT(!local_batches.empty());
  int max_b = 0;
  for (int b : local_batches) {
    ONES_EXPECT_MSG(b >= 1, "every worker needs at least one sample");
    max_b = std::max(max_b, b);
  }
  const double c = static_cast<double>(local_batches.size());
  const int effective_b = std::max(max_b, profile.min_util_batch);
  const double compute =
      profile.t_step_fixed_s + static_cast<double>(effective_b) * profile.t_sample_s;
  double comm = 0.0;
  if (local_batches.size() > 1) {
    ONES_EXPECT(link.bandwidth_Bps > 0.0);
    comm = 2.0 * (c - 1.0) / c * profile.params_bytes / link.bandwidth_Bps +
           2.0 * (c - 1.0) * link.latency_s;
  }
  return compute + comm;
}

inline std::vector<int> ref_even_split(int global_batch, int workers) {
  ONES_EXPECT(workers >= 1);
  ONES_EXPECT_MSG(global_batch >= workers, "cannot give every worker a sample");
  std::vector<int> out(static_cast<std::size_t>(workers), global_batch / workers);
  const int rem = global_batch % workers;
  for (int i = 0; i < rem; ++i) out[static_cast<std::size_t>(i)] += 1;
  return out;
}

inline double ref_throughput_sps(const model::TaskProfile& profile,
                                 const std::vector<int>& local_batches,
                                 const cluster::LinkProfile& link) {
  int total = 0;
  for (int b : local_batches) total += b;
  return static_cast<double>(total) / ref_step_time_s(profile, local_batches, link);
}

inline double ref_throughput_even_sps(const model::TaskProfile& profile, int global_batch,
                                      int workers, const cluster::LinkProfile& link) {
  return static_cast<double>(global_batch) /
         ref_step_time_s(profile, ref_even_split(global_batch, workers), link);
}

/// Watts of worker `index` of a job running `local_batches` over `link`.
inline double ref_worker_watts(const energy::PowerConfig& cfg,
                               const model::TaskProfile& profile,
                               const std::vector<int>& local_batches, std::size_t index,
                               const cluster::LinkProfile& link) {
  ONES_EXPECT(index < local_batches.size());
  const double step = ref_step_time_s(profile, local_batches, link);
  const int b = std::max(local_batches[index], profile.min_util_batch);
  const double compute =
      profile.t_step_fixed_s + static_cast<double>(b) * profile.t_sample_s;
  const double u = std::min(compute / step, 1.0);
  const double active = u + cfg.comm_power_fraction * (1.0 - u);
  return cfg.gpu_idle_w + (cfg.gpu_busy_w - cfg.gpu_idle_w) * active;
}

/// Sum of ref_worker_watts over all workers, in vector order.
inline double ref_job_watts(const energy::PowerConfig& cfg, const model::TaskProfile& profile,
                            const std::vector<int>& local_batches,
                            const cluster::LinkProfile& link) {
  double watts = 0.0;
  for (std::size_t i = 0; i < local_batches.size(); ++i) {
    watts += ref_worker_watts(cfg, profile, local_batches, i, link);
  }
  return watts;
}

inline cluster::LinkProfile ref_link_profile(const cluster::Topology& topology,
                                             const std::vector<GpuId>& gpus) {
  ONES_EXPECT(!gpus.empty());
  std::unordered_set<NodeId> nodes;
  for (GpuId g : gpus) nodes.insert(topology.node_of(g));
  const auto& cfg = topology.config();
  if (nodes.size() <= 1) return {cfg.intra_node_bw_Bps, cfg.intra_node_latency_s};
  return {cfg.inter_node_bw_Bps, cfg.inter_node_latency_s};
}

/// Copies of the Assignment views, as the vector-returning accessors gave.
inline std::vector<GpuId> ref_gpus_of(const cluster::Assignment& a, JobId job) {
  const auto gpus = a.gpus_of(job);
  return {gpus.begin(), gpus.end()};
}

inline std::vector<JobId> ref_running_jobs(const cluster::Assignment& a) {
  const auto jobs = a.running_jobs();
  return {jobs.begin(), jobs.end()};
}

inline std::vector<GpuId> ref_idle_gpus(const cluster::Assignment& a) {
  const auto idle = a.idle_gpus();
  return {idle.begin(), idle.end()};
}

/// All-idle assignment with `a`'s size and health map, one set_health each.
inline cluster::Assignment ref_empty_like(const cluster::Assignment& a) {
  cluster::Assignment out(a.num_gpus());
  for (const GpuId g : a.unhealthy_gpus()) out.set_health(g, a.health(g));
  return out;
}

// ---------------------------------------------------------------------------
// Throughput oracle on the vector-based math.

class ReferenceOracle {
 public:
  ReferenceOracle(const cluster::Topology& topology, const sched::OracleConfig& config)
      : topology_(topology), config_(config) {}

  double estimate_sps(const sched::JobView& job, int workers, int batch,
                      bool colocated) const {
    ONES_EXPECT(job.profile != nullptr);
    ONES_EXPECT(workers >= 1);
    ONES_EXPECT(batch >= workers);
    const auto& cfg = topology_.config();
    cluster::LinkProfile link =
        colocated ? cluster::LinkProfile{cfg.intra_node_bw_Bps, cfg.intra_node_latency_s}
                  : cluster::LinkProfile{cfg.inter_node_bw_Bps, cfg.inter_node_latency_s};
    const double x = ref_throughput_even_sps(*job.profile, batch, workers, link);
    return x * noise_factor(job.spec.id, workers, batch);
  }

  double estimate_placed_sps(const sched::JobView& job,
                             const cluster::Assignment& assignment) const {
    ONES_EXPECT(job.profile != nullptr);
    const auto gpus = ref_gpus_of(assignment, job.spec.id);
    ONES_EXPECT_MSG(!gpus.empty(), "job has no workers in this assignment");
    std::vector<int> batches;
    batches.reserve(gpus.size());
    for (GpuId g : gpus) batches.push_back(assignment.slot(g).local_batch);
    const cluster::LinkProfile link = ref_link_profile(topology_, gpus);
    const double x = ref_throughput_sps(*job.profile, batches, link);
    return x * noise_factor(job.spec.id, static_cast<int>(gpus.size()),
                            assignment.global_batch(job.spec.id));
  }

  bool can_colocate(int workers) const { return workers <= topology_.gpus_per_node(); }

 private:
  double noise_factor(JobId job, int workers, int batch) const {
    if (config_.noise_sigma <= 0.0) return 1.0;
    std::uint64_t h = config_.noise_seed;
    h ^= static_cast<std::uint64_t>(job) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::uint64_t>(workers) * 0xbf58476d1ce4e5b9ULL;
    h ^= static_cast<std::uint64_t>(batch) * 0x94d049bb133111ebULL;
    Rng rng(h);
    return std::exp(rng.normal(0.0, config_.noise_sigma));
  }

  const cluster::Topology& topology_;
  sched::OracleConfig config_;
};

// ---------------------------------------------------------------------------
// The evolution.

class ReferenceEvolution {
 public:
  using Assignment = cluster::Assignment;
  using Context = core::EvolutionContext;
  /// The pre-rewrite rho table: keyed by JobId, 1/2 for a job without a draw.
  using RhoMap = std::unordered_map<JobId, double>;

  ReferenceEvolution(const core::EvolutionConfig& config, const ReferenceOracle& oracle)
      : config_(config), rng_(config.seed), oracle_(oracle) {}

  const std::vector<Assignment>& population() const { return population_; }

  RhoMap mean_rho(const Context& ctx) const { return draw_rho(ctx, nullptr); }

  void step(const Context& ctx) {
    ensure_population(ctx);
    const std::size_t k = population_size(ctx);

    for (auto& cand : population_) {
      cand.sync_health(*ctx.state->current);
      refresh(cand, ctx);
      if (config_.use_reorder) cand = reorder(cand);
    }

    std::vector<Assignment> cands = population_;
    cands.reserve(4 * k + 1);
    {
      Assignment incumbent = *ctx.state->current;
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
        repair(c1, ctx);
        fill_idle(c1, ctx);
        repair(c2, ctx);
        fill_idle(c2, ctx);
        if (config_.use_reorder) {
          c1 = reorder(c1);
          c2 = reorder(c2);
        }
        cands.push_back(std::move(c1));
        cands.push_back(std::move(c2));
      }
    }

    if (config_.use_mutation && !population_.empty()) {
      for (std::size_t i = 0; i < k; ++i) {
        Assignment m = population_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(population_.size()) - 1))];
        mutate(m, ctx);
        repair(m, ctx);
        fill_idle(m, ctx);
        if (config_.use_reorder) m = reorder(m);
        cands.push_back(std::move(m));
      }
    }

    const RhoMap rho = draw_rho(ctx, &rng_);
    std::vector<double> scores(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) scores[i] = score(cands[i], ctx, rho);
    std::vector<std::size_t> order(cands.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });

    std::vector<Assignment> next;
    next.reserve(k);
    for (std::size_t i = 0; i < order.size() && next.size() < k; ++i) {
      next.push_back(std::move(cands[order[i]]));
    }
    population_ = std::move(next);
  }

  Assignment best(const Context& ctx) {
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

  double score(const Assignment& candidate, const Context& ctx, const RhoMap& rho) const {
    double total = 0.0;
    const bool energy_aware =
        config_.lambda_energy != 0.0 && ctx.state->power != nullptr;
    for (JobId j : ref_running_jobs(candidate)) {
      const auto& v = ctx.view(j);
      const double x = oracle_.estimate_placed_sps(v, candidate);
      auto it = rho.find(j);
      const double r = it != rho.end() ? it->second : 0.5;
      const double rem = core::Evolution::remaining_samples(v, r);
      total += rem * static_cast<double>(candidate.gpu_count(j)) / x;
      if (energy_aware) {
        const auto gpus = ref_gpus_of(candidate, j);
        std::vector<int> batches;
        batches.reserve(gpus.size());
        for (GpuId g : gpus) batches.push_back(candidate.slot(g).local_batch);
        const double watts =
            ref_job_watts(ctx.state->power->config(), *v.profile, batches,
                          ref_link_profile(*ctx.state->topology, gpus));
        total += config_.lambda_energy * (rem / x) * watts /
                 ctx.state->power->config().gpu_busy_w;
      }
    }
    const Assignment& live = *ctx.state->current;
    for (JobId j : ref_running_jobs(candidate)) {
      const auto& v = ctx.view(j);
      if (v.status != sched::JobStatus::Running) continue;
      if (!live.same_placement(candidate, j)) {
        total += config_.switch_penalty_s * static_cast<double>(candidate.gpu_count(j));
      }
    }
    for (JobId j : ref_running_jobs(live)) {
      if (candidate.gpu_count(j) == 0) {
        total += config_.preempt_penalty_s * static_cast<double>(live.gpu_count(j));
      }
    }
    return total;
  }

 private:
  static void drop_finished(Assignment& candidate, const Context& ctx) {
    for (JobId j : ref_running_jobs(candidate)) {
      const sched::JobView* v = ctx.state->job(j);
      if (v == nullptr || v->status == sched::JobStatus::Completed) candidate.evict(j);
    }
  }

  static void trim(Assignment& candidate, JobId job, int c) {
    if (candidate.gpu_count(job) <= c) return;
    const auto gpus = ref_gpus_of(candidate, job);
    for (std::size_t i = gpus.size(); i-- > static_cast<std::size_t>(c);) {
      candidate.clear(gpus[i]);
    }
  }

  static void split(Assignment& candidate, JobId job, int b) {
    const auto gpus = ref_gpus_of(candidate, job);
    const int c = static_cast<int>(gpus.size());
    const int base = b / c;
    const int rem = b % c;
    for (int i = 0; i < c; ++i) {
      candidate.place(gpus[static_cast<std::size_t>(i)], job, base + (i < rem ? 1 : 0));
    }
  }

  std::size_t population_size(const Context& ctx) const {
    if (config_.population_size > 0) return config_.population_size;
    return static_cast<std::size_t>(ctx.state->topology->total_gpus());
  }

  int effective_limit(const sched::JobView& job, const Context& ctx) const {
    int r = ctx.limits->limit(job);
    if (job.status == sched::JobStatus::Running && job.global_batch > 0) {
      r = std::min(r, 2 * job.global_batch);
    }
    return std::max(r, 1);
  }

  int start_batch(const sched::JobView& job, const Context& ctx) const {
    const int r = effective_limit(job, ctx);
    return std::max(1, std::min(r, job.profile->max_local_batch));
  }

  RhoMap draw_rho(const Context& ctx, Rng* rng) const {
    RhoMap rho;
    for (const sched::JobView* j : ctx.state->active_jobs()) {
      double r = 0.5;
      if (ctx.predictor != nullptr) {
        const auto dist = ctx.predictor->predict(*j);
        r = std::clamp(rng != nullptr ? dist.sample(*rng) : dist.mean(), 1e-3, 1.0 - 1e-3);
      }
      rho[j->spec.id] = r;
    }
    return rho;
  }

  void clamp_job(Assignment& candidate, JobId job, const Context& ctx) {
    const int c = candidate.gpu_count(job);
    if (c == 0) return;
    const auto& v = ctx.view(job);
    const int r_limit = effective_limit(v, ctx);
    const int target_c = std::max(1, std::min(ctx.limits->warmed_up(v) ? c : 1, r_limit));
    trim(candidate, job, target_c);
    const int max_b = std::min(r_limit, target_c * v.profile->max_local_batch);
    split(candidate, job, std::clamp(candidate.global_batch(job), target_c, max_b));
  }

  void repair(Assignment& candidate, const Context& ctx) {
    drop_finished(candidate, ctx);
    for (JobId j : ref_running_jobs(candidate)) clamp_job(candidate, j, ctx);
  }

  void fill_idle(Assignment& candidate, const Context& ctx) {
    struct Action {
      bool resume = false;
      JobId job = kInvalidJob;
    };

    for (;;) {
      const auto idle = ref_idle_gpus(candidate);
      if (idle.empty()) return;

      std::vector<Action> actions;
      std::vector<double> weights;

      for (const sched::JobView* v : ctx.state->active_jobs()) {
        if (candidate.gpu_count(v->spec.id) > 0) continue;
        const double y = ctx.expected_remaining(*v);
        actions.push_back({true, v->spec.id});
        weights.push_back(std::max(y, 1.0));
      }

      for (JobId j : ref_running_jobs(candidate)) {
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
        const double x1 = oracle_.estimate_placed_sps(v, candidate);
        const double x2 =
            oracle_.estimate_sps(v, target_c, b2, oracle_.can_colocate(target_c));
        const double gain = std::max(y, 1.0) * (static_cast<double>(c) / x1 -
                                                static_cast<double>(target_c) / x2);
        actions.push_back({false, j});
        weights.push_back(std::max(gain, 1e-6));
      }

      for (JobId j : ref_running_jobs(candidate)) {
        const auto& v = ctx.view(j);
        if (!ctx.limits->warmed_up(v)) continue;
        const int b = candidate.global_batch(j);
        const int c = candidate.gpu_count(j);
        const int target_c = std::min({2 * c, b, c + static_cast<int>(idle.size())});
        if (target_c <= c) continue;
        const double x1 = oracle_.estimate_placed_sps(v, candidate);
        const double x2 =
            oracle_.estimate_sps(v, target_c, b, oracle_.can_colocate(target_c));
        if (x2 <= x1 * 1.02) continue;
        const double y = ctx.expected_remaining(v);
        const double gain = std::max(y, 1.0) * (1.0 / x1 - 1.0 / x2);
        actions.push_back({false, j});
        weights.push_back(std::max(gain, 1e-6));
      }

      if (actions.empty()) return;
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
        const int grow_c = std::max(static_cast<int>(r_limit / local), std::min(2 * c, b));
        const int target_c = std::min(grow_c, c + static_cast<int>(idle.size()));
        if (target_c <= c) continue;
        for (int k = 0; k < target_c - c; ++k) {
          candidate.place(idle[static_cast<std::size_t>(k)], act.job, 1);
        }
        split(candidate, act.job,
              std::clamp(std::min(r_limit, local * target_c), target_c,
                         target_c * v.profile->max_local_batch));
        clamp_job(candidate, act.job, ctx);
      }
    }
  }

  void refresh(Assignment& candidate, const Context& ctx) {
    drop_finished(candidate, ctx);

    for (JobId j : ref_running_jobs(candidate)) {
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
      JobId victim = kInvalidJob;
      double max_exec = -1.0;
      for (JobId j : ref_running_jobs(candidate)) {
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
      auto idle = ref_idle_gpus(candidate);
      std::size_t next = 0;
      for (const sched::JobView* v : fresh) {
        if (next >= idle.size()) break;
        candidate.place(idle[next++], v->spec.id, start_batch(*v, ctx));
      }
    }

    fill_idle(candidate, ctx);
  }

  std::pair<Assignment, Assignment> crossover(const Assignment& a, const Assignment& b) {
    ONES_EXPECT(a.num_gpus() == b.num_gpus());
    Assignment c1 = ref_empty_like(a);
    Assignment c2 = ref_empty_like(a);
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

  void mutate(Assignment& candidate, const Context& ctx) {
    for (JobId j : ref_running_jobs(candidate)) {
      if (rng_.bernoulli(config_.mutation_rate)) candidate.evict(j);
    }
    fill_idle(candidate, ctx);
  }

  static Assignment reorder(const Assignment& candidate) {
    Assignment packed = ref_empty_like(candidate);
    int next = 0;
    for (JobId j : ref_running_jobs(candidate)) {
      for (GpuId g : ref_gpus_of(candidate, j)) {
        while (!packed.slot(next).healthy()) ++next;
        packed.place(next++, j, candidate.slot(g).local_batch);
      }
    }
    return packed;
  }

  void ensure_population(const Context& ctx) {
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
      Assignment cand = ref_empty_like(*ctx.state->current);
      if (!active.empty()) {
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

  core::EvolutionConfig config_;
  Rng rng_;
  const ReferenceOracle& oracle_;
  std::vector<Assignment> population_;
};

}  // namespace ones::testing
