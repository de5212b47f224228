#include "drl/drl_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "sched/oracle.hpp"
#include "sched/placement.hpp"
#include "sched/simulation.hpp"
#include "workload/trace.hpp"

namespace ones::drl {

DrlScheduler::DrlScheduler(const DrlConfig& config)
    : config_(config),
      policy_([&] {
        std::vector<int> sizes;
        sizes.push_back(static_cast<int>(kFeatureDim));
        for (int h : config.hidden) sizes.push_back(h);
        sizes.push_back(1);
        return sizes;
      }(),
              config.seed),
      rng_(config.seed ^ 0xD1CEB00CULL) {}

std::vector<double> DrlScheduler::action_features(const sched::ClusterState& state,
                                                  const sched::JobView& job, int workers) {
  const int total = state.topology->total_gpus();
  const int free = state.current->idle_count();
  const double x_w = state.oracle->estimate_sps(job, workers, job.spec.requested_batch,
                                                state.oracle->can_colocate(workers));
  const double x_1 = state.oracle->estimate_sps(
      job, 1, job.spec.requested_batch,
      true);
  return {
      static_cast<double>(workers) / 8.0,
      x_w / std::max(x_1, 1e-9) / 8.0,               // speedup of this size
      job.dataset_size() / 2e4,                      // workload scale
      job.profile->params_bytes / 5e8,               // model scale (comm cost)
      (state.now - job.spec.arrival_time_s) / 600.0, // waiting time
      static_cast<double>(job.epochs_completed) / 30.0,
      job.samples_processed / std::max(job.dataset_size(), 1.0) / 30.0,
      static_cast<double>(free) / std::max(total, 1),
  };
}

std::vector<DrlScheduler::Action> DrlScheduler::enumerate_actions(
    const sched::ClusterState& state, const cluster::Assignment& assignment) const {
  std::vector<Action> actions;
  const int free = assignment.idle_count();
  if (free == 0) return actions;
  for (const sched::JobView* job : state.jobs()) {
    if (job->status != sched::JobStatus::Waiting) continue;
    if (assignment.gpu_count(job->spec.id) > 0) continue;  // placed this round
    const int min_w = static_cast<int>(
        ceil_div(job->spec.requested_batch, job->profile->max_local_batch));
    const int max_w = std::min({config_.max_workers_per_job, free,
                                job->spec.requested_batch});
    bool any = false;
    for (int w = 1; w <= max_w; w *= 2) {
      if (w < min_w) continue;
      Action a;
      a.job = job->spec.id;
      a.workers = w;
      a.features = action_features(state, *job, w);
      actions.push_back(std::move(a));
      any = true;
    }
    if (!any && min_w <= max_w) {
      Action a;
      a.job = job->spec.id;
      a.workers = min_w;
      a.features = action_features(state, *job, min_w);
      actions.push_back(std::move(a));
    }
  }
  return actions;
}

std::optional<cluster::Assignment> DrlScheduler::on_event(
    const sched::ClusterState& state, const sched::SchedulerEvent& /*event*/) {
  // The agent is invoked on every cluster event (arrivals, completions and
  // epoch boundaries) but never preempts running jobs.

  cluster::Assignment next = *state.current;
  bool changed = false;
  // The DRL agent produces ONE action at a time, each launching one job
  // (the paper's §2.1/§5 critique of DRL schedulers' action-space limits —
  // only one job can be rescheduled at each decision point).
  {
    const auto actions = enumerate_actions(state, next);
    if (actions.empty()) return std::nullopt;

    // Softmax over policy scores.
    std::vector<double> scores(actions.size());
    double max_s = -1e300;
    for (std::size_t i = 0; i < actions.size(); ++i) {
      scores[i] = policy_.forward(actions[i].features)[0];
      max_s = std::max(max_s, scores[i]);
    }
    std::vector<double> probs(actions.size());
    double z = 0.0;
    for (std::size_t i = 0; i < actions.size(); ++i) {
      probs[i] = std::exp(scores[i] - max_s);
      z += probs[i];
    }
    for (auto& p : probs) p /= z;

    std::size_t chosen;
    if (exploration_) {
      chosen = rng_.weighted_index(probs);
    } else {
      chosen = static_cast<std::size_t>(
          std::max_element(probs.begin(), probs.end()) - probs.begin());
    }
    const Action& act = actions[chosen];
    const auto gpus = sched::pick_idle_gpus(next, *state.topology, act.workers);
    ONES_EXPECT_MSG(!gpus.empty(), "enumerated an infeasible DRL action");
    const auto* job = state.job(act.job);
    ONES_EXPECT(job != nullptr);
    sched::place_job_even(next, act.job, gpus, job->spec.requested_batch);
    changed = true;

    if (exploration_) {
      Decision d;
      d.actions = actions;
      d.probs = probs;
      d.chosen = chosen;
      episode_.push_back(std::move(d));
    }
  }
  if (!changed) return std::nullopt;
  return next;
}

void DrlScheduler::train() {
  if (trained_) return;
  exploration_ = true;

  double baseline = 0.0;
  bool has_baseline = false;
  for (int ep = 0; ep < config_.train_episodes; ++ep) {
    workload::TraceConfig tc;
    tc.num_jobs = config_.train_jobs;
    tc.mean_interarrival_s = config_.train_interarrival_s;
    tc.seed = config_.seed + static_cast<std::uint64_t>(ep) * 7919;
    auto trace = workload::generate_trace(tc);

    sched::SimulationConfig sc;
    sc.topology.num_nodes = config_.train_nodes;
    sc.record_epoch_logs = false;

    episode_.clear();
    sched::ClusterSimulation sim(sc, std::move(trace), *this);
    sim.run();

    double avg_jct = mean_of(sim.metrics().jcts());
    if (!sim.all_completed()) avg_jct *= 3.0;  // stranded work: strong penalty
    training_curve_.push_back(avg_jct);

    if (!has_baseline) {
      baseline = avg_jct;
      has_baseline = true;
    }
    const double advantage = (baseline - avg_jct) / std::max(baseline, 1.0);
    baseline = 0.9 * baseline + 0.1 * avg_jct;

    // REINFORCE: grad log pi(chosen) = (1[a=chosen] - pi(a)) * grad score(a).
    const std::vector<double> unit = {1.0};
    for (const Decision& d : episode_) {
      for (std::size_t a = 0; a < d.actions.size(); ++a) {
        const double coeff = ((a == d.chosen) ? 1.0 : 0.0) - d.probs[a];
        policy_.accumulate_gradient(d.actions[a].features, unit, advantage * coeff);
      }
    }
    policy_.apply_gradient(config_.learning_rate);
  }

  episode_.clear();
  exploration_ = false;
  trained_ = true;
}

}  // namespace ones::drl
