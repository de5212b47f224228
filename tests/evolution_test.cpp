// Unit tests for the ONES core: batch-limit policies (§3.3.2) and the
// evolutionary operators / SRUF scoring (§3.2).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/batch_policy.hpp"
#include "core/evolution.hpp"
#include "core/ones_scheduler.hpp"
#include "sched/oracle.hpp"

namespace ones::core {
namespace {

template <typename T>
std::vector<T> as_vector(std::span<const T> view) {
  return {view.begin(), view.end()};
}

// Builds a fake ClusterState with controllable jobs, for exercising the
// evolution operators without a full simulation.
class Fixture {
 public:
  static cluster::Topology make_topo(int nodes) {
    cluster::TopologyConfig c;
    c.num_nodes = nodes;
    c.gpus_per_node = 4;
    return cluster::Topology(c);
  }

  explicit Fixture(int nodes = 2)
      : topo_(make_topo(nodes)), current_(topo_.total_gpus()), oracle_(topo_) {}

  sched::JobView& add_job(JobId id, const char* model, std::int64_t dataset,
                          sched::JobStatus status, int epochs_done = 0,
                          double exec_time = 0.0) {
    auto v = std::make_unique<sched::JobView>();
    v->spec.id = id;
    v->spec.variant = {model, "t", dataset, 10};
    v->spec.requested_gpus = 1;
    v->profile = &model::profile_by_name(model);
    v->spec.requested_batch = std::min(v->profile->b_ref, v->profile->max_local_batch);
    v->init_loss = v->profile->init_loss;
    v->status = status;
    v->epochs_completed = epochs_done;
    v->exec_time_s = exec_time;
    v->samples_processed = static_cast<double>(dataset) * epochs_done;
    v->train_loss = v->profile->init_loss * 0.5;
    v->val_accuracy = 0.5;
    views_.push_back(std::move(v));
    limits_.on_job_arrival(*views_.back(), 0.0);
    return *views_.back();
  }

  /// Mark a job as running in the live assignment.
  void run_on(JobId id, std::vector<GpuId> gpus, int batch) {
    auto& v = view(id);
    const int local = batch / static_cast<int>(gpus.size());
    for (GpuId g : gpus) current_.place(g, id, local);
    v.status = sched::JobStatus::Running;
    v.gpus = static_cast<int>(gpus.size());
    v.global_batch = batch;
  }

  sched::JobView& view(JobId id) {
    for (auto& v : views_) {
      if (v->spec.id == id) return *v;
    }
    throw std::logic_error("no such job in fixture");
  }

  EvolutionContext context(const predict::ProgressPredictor* predictor = nullptr) {
    state_ = sched::ClusterState{};
    state_.now = 100.0;
    state_.topology = &topo_;
    state_.current = &current_;
    state_.oracle = &oracle_;
    for (auto& v : views_) {
      state_.admit(*v);
      if (v->status == sched::JobStatus::Completed) state_.retire(*v);
    }
    return make_context(state_, predictor, &limits_);
  }

  cluster::Topology topo_;
  cluster::Assignment current_;
  sched::ThroughputOracle oracle_;
  sched::ClusterState state_;
  BatchLimitManager limits_;
  std::vector<std::unique_ptr<sched::JobView>> views_;
};

// ---------------- Shared policy front-end (update condition) ----------------

bool deploys_on(const OnesPolicy& policy, const Fixture& f, sched::EventKind kind) {
  return policy.should_deploy(f.state_, sched::SchedulerEvent{kind, 1});
}

TEST(OnesPolicy, EpochDeploysWaitUntilEveryRunningJobAdvances) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 2);
  f.add_job(2, "ResNet18", 20000, sched::JobStatus::Running, 3);
  f.run_on(1, {0, 1, 2, 3}, 128);
  f.run_on(2, {4, 5, 6, 7}, 128);
  f.context();
  OnesPolicy policy(BatchPolicyConfig{}, predict::PredictorConfig{}, true);
  policy.deployed(f.state_, f.current_);

  EXPECT_FALSE(deploys_on(policy, f, sched::EventKind::EpochComplete));
  f.view(1).epochs_completed += 1;
  EXPECT_FALSE(deploys_on(policy, f, sched::EventKind::EpochComplete));  // job 2 lags
  f.view(2).epochs_completed += 1;
  EXPECT_TRUE(deploys_on(policy, f, sched::EventKind::EpochComplete));

  // A new deploy restarts the pacing from the current epoch counts.
  policy.deployed(f.state_, f.current_);
  EXPECT_FALSE(deploys_on(policy, f, sched::EventKind::EpochComplete));
}

TEST(OnesPolicy, WorkloadChangesAndIdleCapacityBypassPacing) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 2);
  f.run_on(1, {0, 1, 2, 3, 4, 5, 6, 7}, 256);
  f.context();
  OnesPolicy policy(BatchPolicyConfig{}, predict::PredictorConfig{}, true);
  policy.deployed(f.state_, f.current_);

  EXPECT_FALSE(deploys_on(policy, f, sched::EventKind::EpochComplete));
  EXPECT_FALSE(deploys_on(policy, f, sched::EventKind::Timer));
  EXPECT_TRUE(deploys_on(policy, f, sched::EventKind::JobArrival));
  EXPECT_TRUE(deploys_on(policy, f, sched::EventKind::JobComplete));
  EXPECT_TRUE(deploys_on(policy, f, sched::EventKind::CapacityChange));

  // An idle GPU alone does not bypass the pacing...
  f.current_.clear(7);
  EXPECT_FALSE(deploys_on(policy, f, sched::EventKind::EpochComplete));
  // ...but an idle GPU with a waiting job does.
  f.add_job(2, "ResNet18", 20000, sched::JobStatus::Waiting);
  f.context();
  EXPECT_TRUE(deploys_on(policy, f, sched::EventKind::EpochComplete));
}

// ---------------- Batch limit policies ----------------

TEST(BatchPolicy, StartLimitFitsOneGpu) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting);
  EXPECT_EQ(f.limits_.limit(v), std::min(v.profile->b_ref, v.profile->max_local_batch));
  EXPECT_FALSE(f.limits_.warmed_up(v));
}

TEST(BatchPolicy, WarmupAfterOneEpoch) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1);
  EXPECT_TRUE(f.limits_.warmed_up(v));
}

TEST(BatchPolicy, ScaleUpDoublesForYoungJobs) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;  // effectively no convoy penalty
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1, 10.0);
  limits.on_job_arrival(v, 0.0);
  const int r0 = limits.limit(v);
  limits.on_epoch_complete(v);
  EXPECT_EQ(limits.limit(v), 2 * r0);
}

TEST(BatchPolicy, ScaleUpIsCappedAtCriticalMultiple) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;
  cfg.r_cap_multiple = 2.0;
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1, 1.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 10; ++e) limits.on_epoch_complete(v);
  EXPECT_LE(limits.limit(v), static_cast<int>(2.0 * v.profile->b_crit));
}

TEST(BatchPolicy, ConvoyPenaltyShrinksLongJobs) {
  BatchPolicyConfig cfg;
  cfg.sigma = 0.1;  // 1/sigma = 10 s
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1, 0.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 6; ++e) limits.on_epoch_complete(v);  // grow young
  const int grown = limits.limit(v);
  v.exec_time_s = 200.0;  // sigma*T = 20 -> strong shrink
  for (int e = 0; e < 8; ++e) limits.on_epoch_complete(v);
  EXPECT_LT(limits.limit(v), grown);
  // But never below the reference configuration.
  EXPECT_GE(limits.limit(v), std::min(v.profile->b_ref, v.profile->max_local_batch));
}

TEST(BatchPolicy, ResumeHalvesWhenLeftWaiting) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;
  cfg.min_limit_divisor = 4;  // let halving actually bite in this test
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 2, 5.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 3; ++e) limits.on_epoch_complete(v);
  const int before = limits.limit(v);
  limits.on_left_waiting(v);
  EXPECT_EQ(limits.limit(v), std::max(before / 2, v.profile->b_ref / 4));
}

TEST(BatchPolicy, PreemptionCapsResumeAtLastBatch) {
  BatchPolicyConfig cfg;
  cfg.sigma = 1e-6;
  BatchLimitManager limits(cfg);
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 3, 5.0);
  limits.on_job_arrival(v, 0.0);
  for (int e = 0; e < 4; ++e) limits.on_epoch_complete(v);
  EXPECT_GT(limits.limit(v), 512);
  limits.on_preempted(v, 512);
  EXPECT_EQ(limits.limit(v), 512);
}

TEST(BatchPolicy, NoLimitBeforeArrivalOrAfterCompletion) {
  BatchLimitManager limits;
  Fixture f;
  auto& v = f.add_job(3, "ResNet18", 20000, sched::JobStatus::Waiting);
  const auto no_limit = [&](auto fn) {
    try {
      fn();
    } catch (const std::logic_error& e) {
      return std::string(e.what()).find("no batch limit") != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(no_limit([&] { limits.limit(v); }));  // never arrived
  limits.on_job_arrival(v, 0.0);
  EXPECT_GT(limits.limit(v), 0);
  limits.on_completed(3);
  EXPECT_TRUE(no_limit([&] { limits.limit(v); }));
  EXPECT_TRUE(no_limit([&] { limits.on_epoch_complete(v); }));
  EXPECT_TRUE(no_limit([&] { limits.on_left_waiting(v); }));
  EXPECT_TRUE(no_limit([&] { limits.on_preempted(v, 64); }));
}

TEST(BatchPolicy, ArrivalRateEstimate) {
  BatchLimitManager limits;
  Fixture f;
  for (int i = 0; i < 5; ++i) {
    auto& v = f.add_job(i, "ResNet18", 20000, sched::JobStatus::Waiting);
    limits.on_job_arrival(v, 10.0 * i);
  }
  EXPECT_NEAR(limits.arrival_rate(), 0.1, 1e-9);
}

// ---------------- Evolution operators ----------------

TEST(Evolution, RefreshFillsIdleClusterWithJobs) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, /*epochs_done=*/1);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, /*epochs_done=*/1);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  evo.refresh(cand, ctx);
  // Both jobs admitted and spread over two workers each; the remaining GPUs
  // legitimately stay idle: these small-batch jobs are launch-bound, so a
  // third worker would add communication without any speedup.
  EXPECT_EQ(cand.gpu_count(1), 2);
  EXPECT_EQ(cand.gpu_count(2), 2);
  EXPECT_EQ(cand.idle_count(), f.topo_.total_gpus() - 4);
}

TEST(Evolution, RefreshEvictsCompletedJobs) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Completed, 20);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  for (int g = 0; g < 4; ++g) cand.place(g, 1, 64);  // stale placement
  evo.refresh(cand, ctx);
  EXPECT_EQ(cand.gpu_count(1), 0);
}

TEST(Evolution, RefreshScalesDownBeyondLimit) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 1);
  (void)v;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  // Way beyond the Start-policy limit (256): 8 workers x 512.
  for (int g = 0; g < 8; ++g) cand.place(g, 1, 512);
  evo.refresh(cand, ctx);
  const int r = evo.effective_limit(f.view(1), ctx);
  EXPECT_LE(cand.global_batch(1), r);
}

TEST(Evolution, NewJobsGetPreferentialAllocation) {
  Fixture f;
  // Cluster fully occupied by an old job; a brand-new job arrives.
  auto& old_job = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 5, 500.0);
  (void)old_job;
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Waiting, 0, 0.0);
  f.view(2).samples_processed = 0.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  for (int g = 0; g < f.topo_.total_gpus(); ++g) cand.place(g, 1, 64);
  evo.refresh(cand, ctx);
  EXPECT_GE(cand.gpu_count(2), 1) << "fresh job must be admitted (anti-starvation)";
}

TEST(Evolution, WarmupJobsLimitedToOneGpu) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 0);  // not warm
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  evo.refresh(cand, ctx);
  EXPECT_EQ(cand.gpu_count(1), 1);
}

TEST(Evolution, CrossoverPreservesSlotSources) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 2);
  f.add_job(2, "GoogleNet", 25000, sched::JobStatus::Running, 2);
  Evolution evo(EvolutionConfig{});
  cluster::Assignment a(8), b(8);
  for (int g = 0; g < 8; ++g) a.place(g, 1, 32);
  for (int g = 0; g < 8; ++g) b.place(g, 2, 16);
  auto [c1, c2] = evo.crossover(a, b);
  for (int g = 0; g < 8; ++g) {
    const auto s1 = c1.slot(g), s2 = c2.slot(g);
    // Each GPU's genes come one from each parent.
    EXPECT_TRUE((s1.job == 1 && s2.job == 2) || (s1.job == 2 && s2.job == 1));
  }
}

TEST(Evolution, MutationPreemptsSomeJobsAndRefills) {
  Fixture f;
  for (JobId j = 1; j <= 4; ++j) {
    f.add_job(j, "ResNet18", 20000, sched::JobStatus::Running, 2);
  }
  auto ctx = f.context();
  EvolutionConfig cfg;
  cfg.mutation_rate = 1.0;  // preempt everything
  Evolution evo(cfg);
  cluster::Assignment cand(f.topo_.total_gpus());
  for (int g = 0; g < 8; ++g) cand.place(g, 1 + g % 4, 64);
  const auto before = cand;
  evo.mutate(cand, ctx);
  EXPECT_EQ(cand.idle_count(), 0);  // refilled
  EXPECT_NE(cand, before);
}

TEST(Evolution, ReorderPacksWorkersContiguously) {
  cluster::Assignment scattered(8);
  scattered.place(0, 1, 32);
  scattered.place(3, 2, 16);
  scattered.place(5, 1, 32);
  scattered.place(7, 2, 16);
  const auto packed = Evolution::reorder(scattered);
  EXPECT_EQ(as_vector(packed.gpus_of(1)), (std::vector<GpuId>{0, 1}));
  EXPECT_EQ(as_vector(packed.gpus_of(2)), (std::vector<GpuId>{2, 3}));
  EXPECT_EQ(packed.global_batch(1), 64);
  EXPECT_EQ(packed.global_batch(2), 32);
}

TEST(Evolution, ReorderInPlaceMatchesReorder) {
  enum Shape { Packed, Scattered, IdleGaps, DownGpus, kShapes };
  const char* const names[] = {"packed", "scattered", "idle gaps", "down GPUs"};
  constexpr int kGpus = 32;
  Rng rng(17);
  int rebuilt[kShapes] = {};
  for (int trial = 0; trial < 400; ++trial) {
    const auto shape = static_cast<Shape>(trial % kShapes);
    SCOPED_TRACE(std::string(names[shape]) + " trial " + std::to_string(trial));
    cluster::Assignment cand(kGpus);
    if (shape == DownGpus) {
      for (int k = 0; k < 6; ++k) {
        cand.set_health(static_cast<GpuId>(rng.uniform_int(0, kGpus - 1)),
                        rng.bernoulli(0.5) ? cluster::SlotHealth::Failed
                                           : cluster::SlotHealth::Reclaimed);
      }
    }
    // Jobs in a shuffled order, so first-occurrence order is not id order.
    std::vector<JobId> jobs{0, 1, 2, 3, 4, 5, 6, 7};
    rng.shuffle(jobs);
    GpuId next = 0;  // packed shapes fill healthy GPUs from the bottom
    for (const JobId j : jobs) {
      const int workers = static_cast<int>(rng.uniform_int(0, 4));
      for (int w = 0; w < workers && cand.idle_count() > 0; ++w) {
        const int batch = static_cast<int>(rng.uniform_int(1, 64));
        GpuId g = 0;
        if (shape == Scattered || (shape == DownGpus && trial % 8 == 3)) {
          const auto idle = cand.idle_gpus();
          g = idle[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(idle.size()) - 1))];
        } else {
          if (shape == IdleGaps && rng.bernoulli(0.2)) ++next;  // leave a hole
          while (next < kGpus && !cand.slot(next).healthy()) ++next;
          if (next >= kGpus) break;
          g = next++;
        }
        cand.place(g, j, batch);
      }
    }

    const cluster::Assignment before = cand;
    const cluster::Assignment expected = Evolution::reorder(before);
    const auto first = cand.running_jobs();
    const GpuId* index_before = first.empty() ? nullptr : cand.gpus_of(first[0]).data();
    Evolution::reorder_in_place(cand);
    EXPECT_EQ(cand, expected);
    EXPECT_NO_THROW(cand.audit_indexes());
    EXPECT_EQ(as_vector(cand.running_jobs()), as_vector(expected.running_jobs()));
    if (cand == before) {
      // Already packed: the candidate is left as it was, not rebuilt (a
      // rebuild would re-allocate every per-job GPU list).
      if (index_before != nullptr) {
        EXPECT_EQ(cand.gpus_of(cand.running_jobs()[0]).data(), index_before);
      }
    } else {
      ++rebuilt[shape];
    }
  }
  EXPECT_EQ(rebuilt[Packed], 0);  // packed by construction: never rebuilt
  EXPECT_GT(rebuilt[Scattered], 0);
  EXPECT_GT(rebuilt[IdleGaps], 0);
  EXPECT_GT(rebuilt[DownGpus], 0);
}

TEST(Evolution, ReorderImprovesLocalityScore) {
  Fixture f;
  auto& v = f.add_job(1, "VGG16", 10000, sched::JobStatus::Running, 3);
  v.samples_processed = 30000.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment spread(f.topo_.total_gpus());
  spread.place(0, 1, 64);
  spread.place(4, 1, 64);  // crosses nodes
  const auto packed = Evolution::reorder(spread);
  RhoMap rho{0.5, 0.5};  // indexed by JobId: job 1 at 0.5
  EXPECT_LT(evo.score(packed, ctx, rho), evo.score(spread, ctx, rho));
}

TEST(Evolution, RepairEnforcesMemoryAndEvenSplit) {
  Fixture f;
  f.add_job(1, "VGG16", 10000, sched::JobStatus::Running, 3);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  cand.place(0, 1, 100);
  cand.place(1, 1, 1);  // lopsided child from crossover
  evo.repair(cand, ctx);
  const auto gpus = cand.gpus_of(1);
  ASSERT_FALSE(gpus.empty());
  int lo = 1 << 30, hi = 0;
  for (GpuId g : gpus) {
    lo = std::min(lo, cand.slot(g).local_batch);
    hi = std::max(hi, cand.slot(g).local_batch);
    EXPECT_LE(cand.slot(g).local_batch, f.view(1).profile->max_local_batch);
  }
  EXPECT_LE(hi - lo, 1);  // even split
}

TEST(Evolution, EffectiveLimitCapsOneDoublingPerReconfig) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 6, 1.0);
  f.run_on(1, {0}, 256);
  // Pump the policy limit far above the live batch.
  for (int e = 0; e < 5; ++e) f.limits_.on_epoch_complete(v);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  EXPECT_GT(f.limits_.limit(v), 512);
  EXPECT_EQ(evo.effective_limit(v, ctx), 512);  // 2x live batch
}

TEST(Evolution, ScoreIsSrufUtilization) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 2);
  v.samples_processed = 40000.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment cand(f.topo_.total_gpus());
  cand.place(0, 1, 256);
  RhoMap rho{0.5, 0.5};  // indexed by JobId: job 1 at 0.5
  // Eq. 8: Y_proc * c / X * (1/rho - 1); plus switch surcharge because the
  // live assignment (empty) differs... job 1 is Running in view but absent
  // from live, so no switch penalty applies (it is charged as a resume).
  const double x = f.oracle_.estimate_placed_sps(v, cand);
  const double expected = 40000.0 * 1.0 / x * (1.0 / 0.5 - 1.0);
  EXPECT_NEAR(evo.score(cand, ctx, rho), expected + 600.0 /*preempt: live had none*/,
              expected + 600.0);
  EXPECT_GT(evo.score(cand, ctx, rho), 0.0);
}

TEST(Evolution, ScorePrefersShorterRemaining) {
  Fixture f;
  auto& a = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 2);
  auto& b = f.add_job(2, "ResNet18", 20000, sched::JobStatus::Waiting, 2);
  a.samples_processed = 20000.0;
  b.samples_processed = 20000.0;
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  cluster::Assignment run_a(f.topo_.total_gpus()), run_b(f.topo_.total_gpus());
  run_a.place(0, 1, 256);
  run_b.place(0, 2, 256);
  // Job 1 is nearly done (rho -> 1), job 2 barely started (rho small).
  RhoMap rho{0.5, 0.9, 0.1};  // indexed by JobId: job 1 at 0.9, job 2 at 0.1
  EXPECT_LT(evo.score(run_a, ctx, rho), evo.score(run_b, ctx, rho));
}

TEST(Evolution, StepSelectsPopulationOfConfiguredSize) {
  Fixture f;
  for (JobId j = 1; j <= 3; ++j) f.add_job(j, "ResNet18", 20000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context();
  EvolutionConfig cfg;
  cfg.population_size = 10;
  Evolution evo(cfg);
  evo.step(ctx);
  EXPECT_EQ(evo.population().size(), 10u);
  for (const auto& cand : evo.population()) {
    EXPECT_NO_THROW(cand.check_invariants());
    EXPECT_EQ(cand.idle_count(), 0);  // Eq. 4: saturate the cluster
  }
}

TEST(Evolution, StepImprovesOrMaintainsBestScore) {
  Fixture f;
  for (JobId j = 1; j <= 6; ++j) {
    auto& v = f.add_job(j, "ResNet18", 20000 + 1000 * j, sched::JobStatus::Waiting, 2);
    v.samples_processed = 10000.0 * static_cast<double>(j);
  }
  auto ctx = f.context();
  EvolutionConfig cfg;
  cfg.population_size = 8;
  Evolution evo(cfg);
  evo.ensure_population(ctx);
  const RhoMap rho = evo.mean_rho(ctx);
  double best0 = 1e300;
  for (const auto& cand : evo.population()) best0 = std::min(best0, evo.score(cand, ctx, rho));
  for (int i = 0; i < 5; ++i) evo.step(ctx);
  double best5 = 1e300;
  for (const auto& cand : evo.population()) best5 = std::min(best5, evo.score(cand, ctx, rho));
  EXPECT_LE(best5, best0 * 1.05);
}

TEST(Evolution, BestIsFeasibleAndSaturating) {
  Fixture f;
  for (JobId j = 1; j <= 4; ++j) f.add_job(j, "GoogleNet", 25000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context();
  Evolution evo(EvolutionConfig{});
  for (int i = 0; i < 3; ++i) evo.step(ctx);
  const auto best = evo.best(ctx);
  EXPECT_NO_THROW(best.check_invariants());
  EXPECT_EQ(best.idle_count(), 0);
  for (JobId j : best.running_jobs()) {
    EXPECT_LE(best.global_batch(j), evo.effective_limit(f.view(j), ctx));
  }
}

TEST(Evolution, SampleRhoWithoutPredictorIsHalf) {
  Fixture f;
  f.add_job(1, "ResNet18", 20000, sched::JobStatus::Waiting, 1);
  auto ctx = f.context(nullptr);
  Evolution evo(EvolutionConfig{});
  const auto rho = evo.sample_rho(ctx);
  EXPECT_DOUBLE_EQ(rho.at(1), 0.5);
}

TEST(Evolution, SampleRhoWithPredictorVariesMeanRhoDoesNot) {
  Fixture f;
  auto& v = f.add_job(1, "ResNet18", 20000, sched::JobStatus::Running, 5);
  v.samples_processed = 100000.0;
  predict::ProgressPredictor predictor;
  auto ctx = f.context(&predictor);
  Evolution evo(EvolutionConfig{});
  const auto s1 = evo.sample_rho(ctx);
  const auto s2 = evo.sample_rho(ctx);
  EXPECT_NE(s1.at(1), s2.at(1));  // stochastic draws
  const auto m1 = evo.mean_rho(ctx);
  const auto m2 = evo.mean_rho(ctx);
  EXPECT_DOUBLE_EQ(m1.at(1), m2.at(1));  // deterministic mean
}

}  // namespace
}  // namespace ones::core
