// DRL scheduler baseline (paper §4.1), in the style of Chic (Gong et al.):
// an experience-driven policy trained offline with REINFORCE and used
// greedily online. Adapted — as in the paper — to all-reduce data-parallel
// training: each action launches ONE waiting job with a chosen worker count
// (elastic job size, Table 3), jobs are never preempted, and the batch size
// stays fixed at submission.
//
// The policy network scores (job, worker-count) candidate actions from
// observable features; a softmax over scores gives the stochastic training
// policy, and argmax gives the deterministic evaluation policy. Training
// runs whole simulated episodes on small random traces and applies the
// log-softmax policy gradient weighted by the episode's negative-average-JCT
// advantage against a moving baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "drl/mlp.hpp"
#include "sched/scheduler.hpp"

namespace ones::drl {

struct DrlConfig {
  int train_episodes = 80;
  int train_jobs = 32;
  int train_nodes = 4;  ///< 4 nodes x 4 GPUs = 16-GPU training cluster
  std::uint64_t seed = 2024;
};

class DrlScheduler : public sched::Scheduler {
 public:
  explicit DrlScheduler(const DrlConfig& config = {});

  std::string name() const override { return "DRL"; }
  sched::ScalingMechanism mechanism() const override {
    return sched::ScalingMechanism::Checkpoint;
  }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override;

  /// Offline training phase (idempotent). Runs simulated episodes on small
  /// random traces; must be called before evaluation runs for a meaningful
  /// policy (an untrained policy is random).
  void train();

  bool trained() const { return trained_; }
  /// Episode returns observed during training (diagnostics / tests).
  const std::vector<double>& training_curve() const { return training_curve_; }

  static constexpr std::size_t kFeatureDim = 8;
  /// Feature vector for scheduling `job` on `workers` GPUs (exposed for tests).
  static std::vector<double> action_features(const sched::ClusterState& state,
                                             const sched::JobView& job, int workers);

 private:
  struct Action {
    JobId job = kInvalidJob;
    int workers = 0;
    std::vector<double> features;
  };
  struct Decision {
    std::vector<Action> actions;
    std::vector<double> probs;
    std::size_t chosen = 0;
  };

  std::vector<Action> enumerate_actions(const sched::ClusterState& state,
                                        const cluster::Assignment& assignment) const;

  DrlConfig config_;
  Mlp policy_;
  Rng rng_;
  bool exploration_ = false;
  bool trained_ = false;
  std::vector<Decision> episode_;
  std::vector<double> training_curve_;
};

}  // namespace ones::drl
