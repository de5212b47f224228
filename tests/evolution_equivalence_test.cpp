// Differential harness: the production ONES evolution vs the reference
// evolution (tests/reference_evolution.hpp).
//
// Both searches start from the same seed and are driven in lock-step over
// the same evolving cluster state: jobs run, finish and arrive, the best
// schedule is deployed between rounds, and (in the fault variant) GPUs fail,
// get reclaimed and heal. After every `step` the harness asserts that the
// two populations hold identical slot arrays; after every round it asserts
// that both deploy the same `best()`; after the last step it asserts that
// every population member scores bit-identically. Any divergence means an
// allocation-free rewrite changed a decision — the reference is the spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "core/batch_policy.hpp"
#include "core/evolution.hpp"
#include "energy/power_model.hpp"
#include "model/task.hpp"
#include "predict/progress_predictor.hpp"
#include "reference_evolution.hpp"
#include "sched/oracle.hpp"

namespace ones::core {
namespace {

struct Variant {
  const char* name;
  int nodes;
  bool predictor;
  double lambda_energy;
  bool faults;
};

std::string variant_name(const ::testing::TestParamInfo<Variant>& info) {
  return info.param.name;
}

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

cluster::Topology make_topology(int nodes) {
  cluster::TopologyConfig c;
  c.num_nodes = nodes;
  c.gpus_per_node = 4;
  return cluster::Topology(c);
}

/// A hand-driven cluster: the state both searches read, advanced between
/// rounds the way the simulation driver would.
class World {
 public:
  World(int nodes, std::uint64_t seed)
      : topo_(make_topology(nodes)),
        current_(topo_.total_gpus()),
        oracle_(topo_),
        ref_oracle_(topo_, sched::OracleConfig{}),
        power_(energy::PowerConfig{}),
        rng_(seed) {
    // Two jobs per node: a third running and warmed up, a third fresh, a
    // third preempted with progress.
    GpuId next_gpu = 0;
    for (int i = 0; i < 2 * nodes; ++i) {
      sched::JobView& v = add_job(i % 3 == 1 ? 0 : 1 + static_cast<int>(i % 4));
      if (i % 3 != 0) continue;
      const int c = 1 << ((i / 3) % 3);  // 1, 2 or 4 GPUs
      if (next_gpu + c > topo_.total_gpus()) continue;
      const int local = std::min(v.profile->b_ref, v.profile->max_local_batch);
      for (int k = 0; k < c; ++k) current_.place(next_gpu++, v.spec.id, local);
      v.status = sched::JobStatus::Running;
      v.gpus = c;
      v.global_batch = local * c;
      limits_.on_epoch_complete(v);
    }
  }

  EvolutionContext context(bool with_predictor) {
    state_ = sched::ClusterState{};
    state_.now = now_;
    state_.topology = &topo_;
    state_.current = &current_;
    state_.oracle = &oracle_;
    state_.power = &power_;
    for (auto& v : views_) {
      state_.admit(*v);
      if (v->status == sched::JobStatus::Completed) state_.retire(*v);
    }
    return make_context(state_, with_predictor ? &predictor_ : nullptr, &limits_);
  }

  /// Deploy `next`, then let every running job train for a while: epochs
  /// complete (raising batch limits), some jobs finish, one arrives.
  void advance(const cluster::Assignment& next, int round, bool faults) {
    current_ = next;
    now_ += 300.0;
    for (auto& v : views_) {
      if (v->status == sched::JobStatus::Completed) continue;
      const int c = current_.gpu_count(v->spec.id);
      v->status = c > 0 ? sched::JobStatus::Running : sched::JobStatus::Waiting;
      v->gpus = c;
      v->global_batch = current_.global_batch(v->spec.id);
      if (c == 0) continue;
      const int before = v->epochs_completed;
      v->samples_processed += 0.6 * v->dataset_size() * static_cast<double>(c);
      v->exec_time_s += 300.0;
      v->epochs_completed = static_cast<int>(v->samples_processed / v->dataset_size());
      for (int e = before; e < v->epochs_completed; ++e) limits_.on_epoch_complete(*v);
      if (v->epochs_completed >= 4) {
        v->status = sched::JobStatus::Completed;
        current_.evict(v->spec.id);
        limits_.on_completed(v->spec.id);
        v->gpus = 0;
        v->global_batch = 0;
      }
    }
    add_job(0);
    if (faults) {
      // GPU 1 fails, the last GPU is reclaimed, and GPU 1 heals one round
      // later. Workers on a lost GPU lose their whole placement, as under
      // checkpoint-restart recovery.
      const auto take_down = [&](GpuId g, cluster::SlotHealth h) {
        const JobId victim = current_.slot(g).job;
        if (victim != kInvalidJob) {
          current_.evict(victim);
          sched::JobView& v = view(victim);
          v.status = sched::JobStatus::Waiting;
          v.gpus = 0;
          v.global_batch = 0;
        }
        current_.set_health(g, h);
      };
      if (round == 0) {
        take_down(1, cluster::SlotHealth::Failed);
        take_down(topo_.total_gpus() - 1, cluster::SlotHealth::Reclaimed);
      } else if (round == 1) {
        current_.set_health(1, cluster::SlotHealth::Healthy);
      }
    }
  }

  const ones::testing::ReferenceOracle& ref_oracle() const { return ref_oracle_; }

 private:
  sched::JobView& add_job(int epochs_done) {
    const auto& profiles = model::builtin_profiles();
    const auto& profile = profiles[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(profiles.size()) - 1))];
    const std::int64_t dataset = rng_.uniform_int(5000, 50000);
    auto v = std::make_unique<sched::JobView>();
    v->spec.id = static_cast<JobId>(views_.size());
    v->spec.variant = {profile.name, "t", dataset, 10};
    v->spec.requested_gpus = 1;
    v->profile = &profile;
    v->spec.requested_batch = std::min(profile.b_ref, profile.max_local_batch);
    v->init_loss = profile.init_loss;
    v->status = sched::JobStatus::Waiting;
    v->epochs_completed = epochs_done;
    v->exec_time_s = 120.0 * epochs_done;
    v->samples_processed = static_cast<double>(dataset) * epochs_done;
    v->train_loss = profile.init_loss * 0.5;
    v->val_accuracy = 0.5;
    views_.push_back(std::move(v));
    limits_.on_job_arrival(*views_.back(), now_);
    return *views_.back();
  }

  sched::JobView& view(JobId id) { return *views_[static_cast<std::size_t>(id)]; }

  cluster::Topology topo_;
  cluster::Assignment current_;
  sched::ThroughputOracle oracle_;
  ones::testing::ReferenceOracle ref_oracle_;
  energy::PowerModel power_;
  predict::ProgressPredictor predictor_;
  BatchLimitManager limits_;
  sched::ClusterState state_;
  std::vector<std::unique_ptr<sched::JobView>> views_;
  Rng rng_;
  double now_ = 100.0;
};

void expect_same_population(const Evolution& evo,
                            const ones::testing::ReferenceEvolution& ref, int step) {
  const auto& got = evo.population();
  const auto& want = ref.population();
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "step " << step << " member " << i << "\n  got  "
                               << got[i].to_string() << "\n  want " << want[i].to_string();
    got[i].audit_indexes();
  }
}

class EvolutionEquivalence : public ::testing::TestWithParam<Variant> {};

TEST_P(EvolutionEquivalence, LockStepMatchesReference) {
  const Variant& p = GetParam();
  World world(p.nodes, 1000 + static_cast<std::uint64_t>(p.nodes));
  EvolutionConfig config;
  config.lambda_energy = p.lambda_energy;
  config.seed = 4242;
  Evolution evo(config);
  ones::testing::ReferenceEvolution ref(config, world.ref_oracle());

  constexpr int kRounds = 3;
  constexpr int kStepsPerRound = 2;
  int step = 0;
  for (int round = 0; round < kRounds; ++round) {
    const EvolutionContext ctx = world.context(p.predictor);
    for (int s = 0; s < kStepsPerRound; ++s, ++step) {
      evo.step(ctx);
      ref.step(ctx);
      ASSERT_NO_FATAL_FAILURE(expect_same_population(evo, ref, step));
    }
    const cluster::Assignment best = evo.best(ctx);
    ASSERT_EQ(best, ref.best(ctx)) << "round " << round;
    if (round + 1 < kRounds) world.advance(best, round, p.faults);
  }

  // Scores of the final population, bit for bit, under the deterministic rho;
  // each side scores under its own rho table.
  const EvolutionContext ctx = world.context(p.predictor);
  const RhoMap rho = evo.mean_rho(ctx);
  const auto ref_rho = ref.mean_rho(ctx);
  ASSERT_EQ(rho.size(), ctx.state->id_bound());
  ASSERT_EQ(ref_rho.size(), ctx.state->active_jobs().size());
  for (const sched::JobView* v : ctx.state->active_jobs()) {
    ASSERT_EQ(rho[static_cast<std::size_t>(v->spec.id)], ref_rho.at(v->spec.id))
        << "job " << v->spec.id;
  }
  for (std::size_t i = 0; i < evo.population().size(); ++i) {
    EXPECT_EQ(evo.score(evo.population()[i], ctx, rho),
              ref.score(ref.population()[i], ctx, ref_rho))
        << "member " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, EvolutionEquivalence,
    ::testing::Values(Variant{"Nodes4", 4, false, 0.0, false},
                      Variant{"Nodes4Predictor", 4, true, 0.0, false},
                      Variant{"Nodes4Lambda8", 4, true, 8.0, false},
                      Variant{"Nodes4Faults", 4, true, 0.0, true},
                      Variant{"Nodes8", 8, false, 0.0, false},
                      Variant{"Nodes8Predictor", 8, true, 0.0, false},
                      Variant{"Nodes8Lambda8", 8, true, 8.0, false},
                      Variant{"Nodes8Faults", 8, false, 8.0, true},
                      Variant{"Nodes16", 16, false, 0.0, false},
                      Variant{"Nodes16Predictor", 16, true, 0.0, false},
                      Variant{"Nodes16Lambda8", 16, true, 8.0, false},
                      Variant{"Nodes16Faults", 16, true, 0.0, true}),
    variant_name);

}  // namespace
}  // namespace ones::core
