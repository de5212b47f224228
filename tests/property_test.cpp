// Property-based tests (parameterized sweeps) over invariants:
//   * Eq. 4 — exclusive GPU use and status/assignment consistency on every
//     scheduler event, for every scheduler, across trace seeds;
//   * evolution operator algebra (crossover gene sources, reorder
//     conservation, repair idempotence) across RNG seeds;
//   * conservation of training work: a completed job processed at least
//     (epochs-to-target + patience) x |D| samples' worth of epochs.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/evolution.hpp"
#include "core/annealing.hpp"
#include "core/ones_scheduler.hpp"
#include "drl/drl_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/gandiva.hpp"
#include "sched/optimus.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "workload/trace.hpp"

namespace ones {
namespace {

std::unique_ptr<sched::Scheduler> make_scheduler(const std::string& name) {
  if (name == "ONES") return std::make_unique<core::OnesScheduler>();
  if (name == "FIFO") return std::make_unique<sched::FifoScheduler>();
  if (name == "Tiresias") return std::make_unique<sched::TiresiasScheduler>();
  if (name == "Optimus") return std::make_unique<sched::OptimusScheduler>();
  if (name == "SRTF*") return std::make_unique<sched::SrtfOracleScheduler>();
  if (name == "DRL") return std::make_unique<drl::DrlScheduler>();
  if (name == "Gandiva") return std::make_unique<sched::GandivaScheduler>();
  if (name == "ONES-SA") return std::make_unique<core::AnnealingScheduler>();
  throw std::logic_error("unknown scheduler " + name);
}

/// Decorator that asserts cluster-state invariants on every event before
/// delegating to the wrapped policy.
class InvariantChecker : public sched::Scheduler {
 public:
  explicit InvariantChecker(sched::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  sched::ScalingMechanism mechanism() const override { return inner_.mechanism(); }
  double period_s() const override { return inner_.period_s(); }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override {
    ++events_;
    check(state);
    auto out = inner_.on_event(state, event);
    if (out.has_value()) {
      out->check_invariants();  // Eq. 4 style, before the driver applies it
      for (JobId j : out->running_jobs()) {
        const auto* v = state.job(j);
        ASSERT_NE_OR_THROW(v != nullptr, "assignment names an unknown job");
        for (GpuId g : out->gpus_of(j)) {
          ASSERT_NE_OR_THROW(out->slot(g).local_batch <= v->profile->max_local_batch,
                             "local batch exceeds memory");
        }
      }
    }
    return out;
  }

  std::size_t events() const { return events_; }

 private:
  static void ASSERT_NE_OR_THROW(bool cond, const char* msg) {
    if (!cond) throw std::logic_error(msg);
  }

  void check(const sched::ClusterState& state) {
    state.current->check_invariants();
    // Status consistency: running <=> has workers in the live assignment.
    for (const sched::JobView* v : state.jobs()) {
      const int gpus = state.current->gpu_count(v->spec.id);
      switch (v->status) {
        case sched::JobStatus::Running:
          ASSERT_NE_OR_THROW(gpus > 0, "running job without workers");
          ASSERT_NE_OR_THROW(v->gpus == gpus, "JobView gpu count out of sync");
          ASSERT_NE_OR_THROW(v->global_batch == state.current->global_batch(v->spec.id),
                             "JobView batch out of sync");
          break;
        case sched::JobStatus::Waiting:
        case sched::JobStatus::Recovering:
        case sched::JobStatus::Completed:
          ASSERT_NE_OR_THROW(gpus == 0, "non-running job holds GPUs");
          break;
      }
    }
    // Exclusive use: a GPU hosts at most one job by construction; also the
    // busy + idle partition must cover the cluster.
    const int busy = state.topology->total_gpus() - state.current->idle_count();
    ASSERT_NE_OR_THROW(busy >= 0 && busy <= state.topology->total_gpus(),
                       "busy count out of range");
  }

  sched::Scheduler& inner_;
  std::size_t events_ = 0;
};

struct RunParam {
  std::string scheduler;
  std::uint64_t seed;
  double interarrival;
};

std::string param_name(const testing::TestParamInfo<RunParam>& info) {
  std::string s = info.param.scheduler + "_s" + std::to_string(info.param.seed) + "_i" +
                  std::to_string(static_cast<int>(info.param.interarrival));
  for (auto& ch : s) {
    if (ch == '*' || ch == '-') ch = 'O';
  }
  return s;
}

class SchedulerInvariants : public testing::TestWithParam<RunParam> {};

TEST_P(SchedulerInvariants, HoldOnEveryEventAndAtCompletion) {
  const auto& param = GetParam();
  workload::TraceConfig tc;
  tc.num_jobs = 14;
  tc.mean_interarrival_s = param.interarrival;
  tc.seed = param.seed;
  const auto trace = workload::generate_trace(tc);

  sched::SimulationConfig sc;
  sc.topology.num_nodes = 2;

  auto inner = make_scheduler(param.scheduler);
  InvariantChecker checked(*inner);
  sched::ClusterSimulation sim(sc, trace, checked);
  sim.run();

  EXPECT_TRUE(sim.all_completed()) << param.scheduler;
  EXPECT_GT(checked.events(), trace.size());

  // Conservation of training work: a converged job processed at least the
  // reference requirement's worth of samples (batch inefficiency can only
  // add samples, never remove them).
  for (const auto& spec : trace) {
    const auto& v = sim.job_view(spec.id);
    const double floor_samples =
        (1.0 + 10.0) * static_cast<double>(spec.variant.dataset_size);
    EXPECT_GE(v.samples_processed, floor_samples * 0.99)
        << param.scheduler << " job " << spec.id;
    // And the epoch log's sample counter matches the view.
    EXPECT_NEAR(v.epoch_log.back().samples_processed, v.samples_processed,
                1.0 + v.samples_processed * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerInvariants,
    testing::Values(RunParam{"ONES", 1, 10.0}, RunParam{"ONES", 2, 25.0},
                    RunParam{"ONES", 3, 6.0}, RunParam{"FIFO", 1, 10.0},
                    RunParam{"FIFO", 4, 6.0}, RunParam{"Tiresias", 1, 10.0},
                    RunParam{"Tiresias", 5, 6.0}, RunParam{"Optimus", 1, 10.0},
                    RunParam{"SRTF*", 1, 10.0}, RunParam{"SRTF*", 6, 6.0},
                    RunParam{"DRL", 1, 10.0}, RunParam{"DRL", 7, 25.0},
                    RunParam{"Gandiva", 1, 10.0}, RunParam{"Gandiva", 8, 6.0},
                    RunParam{"ONES-SA", 1, 10.0}, RunParam{"ONES-SA", 9, 6.0}),
    param_name);

// ---------------- Evolution operator algebra ----------------

class OperatorAlgebra : public testing::TestWithParam<std::uint64_t> {
 protected:
  struct World {
    cluster::Topology topo;
    cluster::Assignment live;
    sched::ThroughputOracle oracle;
    sched::ClusterState state;
    core::BatchLimitManager limits;
    std::vector<std::unique_ptr<sched::JobView>> views;

    World()
        : topo([] {
            cluster::TopologyConfig c;
            c.num_nodes = 2;
            return c;
          }()),
          live(topo.total_gpus()),
          oracle(topo) {}
  };

  World make_world(std::uint64_t seed, int jobs) {
    World w;
    Rng rng(seed);
    const char* models[] = {"ResNet18", "GoogleNet", "VGG16-CIFAR", "BERT"};
    for (int j = 0; j < jobs; ++j) {
      auto v = std::make_unique<sched::JobView>();
      v->spec.id = j;
      const char* m = models[rng.uniform_int(0, 3)];
      v->spec.variant = {m, "t", 20000, 10};
      v->profile = &model::profile_by_name(m);
      v->spec.requested_gpus = 1;
      v->spec.requested_batch = std::min(v->profile->b_ref, v->profile->max_local_batch);
      v->status = sched::JobStatus::Waiting;
      v->epochs_completed = static_cast<int>(rng.uniform_int(0, 6));
      v->samples_processed = 20000.0 * v->epochs_completed;
      v->exec_time_s = rng.uniform(0, 300);
      v->init_loss = v->profile->init_loss;
      v->train_loss = v->profile->init_loss * 0.6;
      v->val_accuracy = 0.4;
      w.views.push_back(std::move(v));
      w.limits.on_job_arrival(*w.views.back(), 10.0 * j);
    }
    w.state.now = 500.0;
    w.state.topology = &w.topo;
    w.state.current = &w.live;
    w.state.oracle = &w.oracle;
    for (auto& v : w.views) w.state.admit(*v);
    return w;
  }
};

TEST_P(OperatorAlgebra, CrossoverChildrenTakeEachGeneFromAParent) {
  auto w = make_world(GetParam(), 6);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::EvolutionConfig cfg;
  cfg.seed = GetParam();
  core::Evolution evo(cfg);
  cluster::Assignment a(w.topo.total_gpus()), b(w.topo.total_gpus());
  evo.refresh(a, ctx);
  evo.refresh(b, ctx);
  auto [c1, c2] = evo.crossover(a, b);
  for (int g = 0; g < w.topo.total_gpus(); ++g) {
    const auto sa = a.slot(g), sb = b.slot(g);
    const auto s1 = c1.slot(g), s2 = c2.slot(g);
    EXPECT_TRUE((s1 == sa && s2 == sb) || (s1 == sb && s2 == sa));
  }
}

TEST_P(OperatorAlgebra, ReorderConservesWorkPerJob) {
  auto w = make_world(GetParam(), 5);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::EvolutionConfig cfg;
  cfg.seed = GetParam();
  core::Evolution evo(cfg);
  cluster::Assignment cand(w.topo.total_gpus());
  evo.refresh(cand, ctx);
  const auto packed = core::Evolution::reorder(cand);
  for (const sched::JobView* v : w.state.jobs()) {
    EXPECT_EQ(packed.global_batch(v->spec.id), cand.global_batch(v->spec.id));
    EXPECT_EQ(packed.gpu_count(v->spec.id), cand.gpu_count(v->spec.id));
    // Packed workers are contiguous.
    const auto gpus = packed.gpus_of(v->spec.id);
    for (std::size_t i = 1; i < gpus.size(); ++i) {
      EXPECT_EQ(gpus[i], gpus[i - 1] + 1);
    }
  }
  EXPECT_EQ(packed.idle_count(), cand.idle_count());
}

TEST_P(OperatorAlgebra, RepairIsIdempotent) {
  auto w = make_world(GetParam(), 6);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::EvolutionConfig cfg;
  cfg.seed = GetParam();
  core::Evolution evo(cfg);
  cluster::Assignment cand(w.topo.total_gpus());
  evo.refresh(cand, ctx);
  // Corrupt it like a crossover child would.
  cluster::Assignment other(w.topo.total_gpus());
  evo.refresh(other, ctx);
  auto [c1, c2] = evo.crossover(cand, other);
  evo.repair(c1, ctx);
  const auto once = c1;
  evo.repair(c1, ctx);
  EXPECT_EQ(c1, once);
}

TEST_P(OperatorAlgebra, RefreshedCandidatesSaturateOrExhaustJobs) {
  auto w = make_world(GetParam(), 8);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::EvolutionConfig cfg;
  cfg.seed = GetParam();
  core::Evolution evo(cfg);
  for (int i = 0; i < 4; ++i) {
    cluster::Assignment cand(w.topo.total_gpus());
    evo.refresh(cand, ctx);
    cand.check_invariants();
    // Eq. 4: every GPU allocated (8 jobs are available for 8 GPUs).
    EXPECT_EQ(cand.idle_count(), 0);
    // Batch limits respected.
    for (JobId j : cand.running_jobs()) {
      const auto* v = w.state.job(j);
      EXPECT_LE(cand.global_batch(j), evo.effective_limit(*v, ctx));
      EXPECT_GE(cand.global_batch(j), cand.gpu_count(j));
    }
  }
}

TEST_P(OperatorAlgebra, MutationRateZeroIsIdentityBeforeFill) {
  auto w = make_world(GetParam(), 8);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::EvolutionConfig cfg;
  cfg.seed = GetParam();
  cfg.mutation_rate = 0.0;
  core::Evolution evo(cfg);
  cluster::Assignment cand(w.topo.total_gpus());
  evo.refresh(cand, ctx);
  const auto before = cand;
  evo.mutate(cand, ctx);
  EXPECT_EQ(cand, before);  // no evictions, and fill finds no idle GPUs
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorAlgebra, testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ones
