#include "sched/optimus.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"
#include "sched/oracle.hpp"
#include "sched/placement.hpp"
#include "stats/solve.hpp"

namespace ones::sched {

namespace {

constexpr double kReschedulePeriodS = 600.0;  ///< the paper uses Optimus's 10 min
constexpr int kMaxWorkersPerJob = 16;
/// Prior for jobs with too little history to fit a curve.
constexpr double kDefaultTotalEpochs = 30.0;
constexpr int kPatienceEpochs = 10;  ///< convergence-confirmation tail (paper §4.1)

}  // namespace

double OptimusScheduler::period_s() const { return kReschedulePeriodS; }

double OptimusScheduler::predict_remaining_epochs(const JobView& job) const {
  const double done = static_cast<double>(job.epochs_completed);
  const double tail = static_cast<double>(kPatienceEpochs);

  if (job.epoch_log.size() >= 3) {
    // Fit 1/(1 - acc) = a*k + b on the observed epochs.
    const std::size_t n = job.epoch_log.size();
    stats::Matrix x(n, 2);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x.at(i, 0) = static_cast<double>(i + 1);
      x.at(i, 1) = 1.0;
      const double acc = std::min(job.epoch_log[i].val_accuracy, 0.999);
      y[i] = 1.0 / (1.0 - acc);
    }
    const auto w = stats::ridge_regression(x, y, 1e-6);
    const double a = w[0], b = w[1];
    if (a > 1e-9) {
      const double target = std::min(job.profile->target_accuracy, 0.999);
      const double k_star = (1.0 / (1.0 - target) - b) / a;
      return std::max(k_star - done, 0.0) + tail;
    }
  }
  // Too little history (or a non-increasing fit): fall back to the prior.
  return std::max(kDefaultTotalEpochs - done, 1.0) + tail;
}

std::optional<cluster::Assignment> OptimusScheduler::on_event(const ClusterState& state,
                                                              const SchedulerEvent& event) {
  // Optimus is strictly round-based: it only acts on its periodic timer
  // (the paper highlights the queuing cost of this design).
  if (event.kind != EventKind::Timer) return std::nullopt;

  struct Cand {
    const JobView* job;
    double remaining_samples;
    int min_workers;
    int max_workers;
    int workers = 0;
  };
  std::vector<Cand> cands;
  for (const JobView* job : state.active_jobs()) {
    Cand c;
    c.job = job;
    c.remaining_samples = predict_remaining_epochs(*job) * job->dataset_size();
    c.min_workers = static_cast<int>(
        ceil_div(job->spec.requested_batch, job->profile->max_local_batch));
    c.max_workers = std::min(kMaxWorkersPerJob, job->spec.requested_batch);
    cands.push_back(c);
  }

  auto speed = [&](const Cand& c, int workers) {
    return state.oracle->estimate_sps(*c.job, workers, c.job->spec.requested_batch,
                                      state.oracle->can_colocate(workers));
  };

  // Fairness floor: everyone gets their minimum worker count, shortest
  // predicted remaining time first when over-subscribed.
  std::sort(cands.begin(), cands.end(), [&](const Cand& a, const Cand& b) {
    const double ta = a.remaining_samples / speed(a, a.min_workers);
    const double tb = b.remaining_samples / speed(b, b.min_workers);
    if (ta != tb) return ta < tb;
    return a.job->spec.id < b.job->spec.id;
  });
  int capacity = state.current->healthy_count();
  for (Cand& c : cands) {
    if (c.min_workers <= capacity) {
      c.workers = c.min_workers;
      capacity -= c.min_workers;
    }
  }

  // Greedy marginal allocation of the remaining GPUs.
  while (capacity > 0) {
    Cand* best = nullptr;
    double best_gain = 1e-9;
    for (Cand& c : cands) {
      if (c.workers == 0 || c.workers >= c.max_workers) continue;
      const double gain = c.remaining_samples / speed(c, c.workers) -
                          c.remaining_samples / speed(c, c.workers + 1);
      if (gain > best_gain) {
        best_gain = gain;
        best = &c;
      }
    }
    if (best == nullptr) break;
    best->workers += 1;
    --capacity;
  }

  // Every job with workers, at its count; repack leaves the cluster
  // undisturbed when that is what already runs.
  std::vector<Pick> picks;
  picks.reserve(cands.size());
  for (const Cand& c : cands) {
    if (c.workers > 0) picks.push_back({c.job, c.workers});
  }
  return repack(state, picks, "Optimus");
}

}  // namespace ones::sched
