// Tests for the src/energy subsystem (DESIGN.md §10): PowerModel purity and
// bounds, placed-job pricing and joules pinned bit for bit, the meter's
// agreement with the exported `cluster_watts` timeline (joules are the exact integral of the published
// step function), the §9 observability contract (instrumented == plain), and
// the λ=0 guarantee that the power model is purely observational.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/ones_scheduler.hpp"
#include "energy/meter.hpp"
#include "energy/power_model.hpp"
#include "model/task.hpp"
#include "model/throughput.hpp"
#include "reference_evolution.hpp"
#include "sched/fifo.hpp"
#include "sched/powercap.hpp"
#include "sched/simulation.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace.hpp"

namespace ones::energy {
namespace {

sched::SimulationConfig sim_config(int nodes = 2) {
  sched::SimulationConfig c;
  c.topology.num_nodes = nodes;
  return c;
}

workload::TraceConfig trace_config(int jobs, double interarrival,
                                   std::uint64_t seed = 33) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival;
  t.seed = seed;
  return t;
}

model::TaskProfile test_profile() {
  model::TaskProfile p = model::builtin_profiles().front();
  return p;
}

cluster::LinkProfile fast_link() { return {130.0e9, 5e-6}; }

TEST(PowerModel, RejectsMalformedConfig) {
  PowerConfig bad;
  bad.gpu_busy_w = 10.0;  // below idle
  EXPECT_THROW(PowerModel{bad}, std::logic_error);
  bad = PowerConfig{};
  bad.comm_power_fraction = 1.5;
  EXPECT_THROW(PowerModel{bad}, std::logic_error);
  bad = PowerConfig{};
  bad.node_base_w = -1.0;
  EXPECT_THROW(PowerModel{bad}, std::logic_error);
}

TEST(PowerModel, WorkerWattsStayWithinIdleBusyRange) {
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  for (int b : {1, 8, 64, profile.max_local_batch}) {
    const double step = model::step_time_even_s(profile, 4 * b, 4, fast_link());
    const double w = pm.worker_watts(profile, b, step);
    EXPECT_GE(w, pm.config().gpu_idle_w);
    EXPECT_LE(w, pm.config().gpu_busy_w);
  }
}

TEST(PowerModel, LargerBatchDrawsMoreOnACommBoundWorker) {
  // On a slow link the step is comm-bound, so a bigger local batch raises
  // the compute fraction u and with it the draw.
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  const cluster::LinkProfile slow{1.0e9, 2.5e-5};
  const int big = profile.max_local_batch;
  const double w_small =
      pm.worker_watts(profile, 4, model::step_time_even_s(profile, 16, 4, slow));
  const double w_large =
      pm.worker_watts(profile, big, model::step_time_even_s(profile, 4 * big, 4, slow));
  EXPECT_LT(w_small, w_large);
}

/// One node of four GPUs running job 1 with `batches` on GPUs 0, 1, ...
cluster::Assignment one_job(const cluster::Topology& topo, const std::vector<int>& batches) {
  cluster::Assignment a(topo.total_gpus());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    a.place(static_cast<GpuId>(i), 1, batches[i]);
  }
  return a;
}

TEST(PowerModel, JobWattsIsSumOfWorkerWatts) {
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  const cluster::Topology topo{cluster::TopologyConfig{}};
  const std::vector<int> batches{16, 16, 32, 8};
  const cluster::Assignment a = one_job(topo, batches);
  const model::PlacedJob placed = model::read_placed(a, topo, 1);
  const double step = model::step_time_s(profile, placed);
  double sum = 0.0;
  for (const int b : batches) sum += pm.worker_watts(profile, b, step);
  EXPECT_DOUBLE_EQ(pm.job_watts(profile, a, placed), sum);
}

TEST(PowerModel, EvenSplitMatchesExplicitBatches) {
  const PowerModel pm{PowerConfig{}};
  const auto profile = test_profile();
  const cluster::Topology topo{cluster::TopologyConfig{}};
  // 64 over 4 workers -> {16, 16, 16, 16}.
  const cluster::Assignment a = one_job(topo, std::vector<int>(4, 16));
  const model::PlacedJob placed = model::read_placed(a, topo, 1);
  EXPECT_DOUBLE_EQ(pm.job_watts_even(profile, 64, 4, placed.link),
                   pm.job_watts(profile, a, placed));
}

// The placed-job reader prices throughput and watts from one pass over the
// job's GPUs, with the step time evaluated once per job. The vector formulas
// it replaced (tests/reference_evolution.hpp) are the specification: on
// random uneven placements of 1-32 workers every double must match bit for
// bit, because ONES compares these doubles and the meter integrates them.
TEST(PowerModel, PlacedPricingIsBitIdenticalToTheVectorFormulas) {
  cluster::TopologyConfig tc;
  tc.num_nodes = 8;
  tc.gpus_per_node = 8;
  const cluster::Topology topo(tc);
  PowerConfig skewed;
  skewed.comm_power_fraction = 0.6;
  skewed.gpu_busy_w = 250.0;
  Rng rng(2024);
  std::vector<GpuId> all(static_cast<std::size_t>(topo.total_gpus()));
  for (std::size_t g = 0; g < all.size(); ++g) all[g] = static_cast<GpuId>(g);
  for (const PowerConfig& cfg : {PowerConfig{}, skewed}) {
    const PowerModel pm{cfg};
    for (const auto& profile : model::builtin_profiles()) {
      for (int trial = 0; trial < 40; ++trial) {
        const int c = static_cast<int>(rng.uniform_int(1, 32));
        // Half the small sets stay on one node; the rest are scattered.
        std::vector<GpuId> gpus;
        if (c <= tc.gpus_per_node && rng.bernoulli(0.5)) {
          const GpuId first =
              static_cast<GpuId>(rng.uniform_int(0, tc.num_nodes - 1)) * tc.gpus_per_node;
          for (int i = 0; i < c; ++i) gpus.push_back(first + i);
        } else {
          rng.shuffle(all);
          gpus.assign(all.begin(), all.begin() + c);
          std::sort(gpus.begin(), gpus.end());
        }
        // Uneven local batches on both sides of the launch-bound floor.
        const int top = std::max(profile.max_local_batch, 2 * profile.min_util_batch);
        cluster::Assignment a(topo.total_gpus());
        std::vector<int> batches;
        for (const GpuId g : gpus) {
          batches.push_back(static_cast<int>(rng.uniform_int(1, top)));
          a.place(g, 1, batches.back());
        }
        const model::PlacedJob placed = model::read_placed(a, topo, 1);
        const cluster::LinkProfile link = ones::testing::ref_link_profile(topo, gpus);
        EXPECT_EQ(model::throughput_sps(profile, placed),
                  ones::testing::ref_throughput_sps(profile, batches, link))
            << profile.name << " c=" << c;
        EXPECT_EQ(pm.job_watts(profile, a, placed),
                  ones::testing::ref_job_watts(cfg, profile, batches, link))
            << profile.name << " c=" << c;
        const int total = placed.global_batch;
        EXPECT_EQ(pm.job_watts_even(profile, total, c, link),
                  ones::testing::ref_job_watts(cfg, profile,
                                               ones::testing::ref_even_split(total, c), link))
            << profile.name << " c=" << c << " B=" << total;
      }
    }
  }
}

/// Integrate a right-continuous step function given as (t, value) change
/// points (t non-decreasing) from t=0 to `until`.
double integrate_step_function(const std::vector<std::pair<double, double>>& points,
                               double until) {
  double joules = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double t0 = points[i].first;
    const double t1 = i + 1 < points.size() ? points[i + 1].first : until;
    joules += points[i].second * (t1 - t0);
  }
  return joules;
}

TEST(EnergyMeter, ClusterJoulesEqualIntegralOfPublishedWattsTimeline) {
  core::OnesScheduler ones_sched;
  telemetry::MetricsRegistry registry;
  auto config = sim_config();
  config.metrics = &registry;
  sched::ClusterSimulation sim(config, workload::generate_trace(trace_config(10, 15)),
                               ones_sched);
  sim.run();
  ASSERT_TRUE(sim.all_completed());

  const auto id = registry.timeline().series("cluster_watts");
  std::vector<std::pair<double, double>> watts;
  for (const auto& p : registry.timeline().points()) {
    if (p.series == id) watts.emplace_back(p.t, p.value);
  }
  ASSERT_FALSE(watts.empty());
  EXPECT_EQ(watts.front().first, 0.0);  // metering starts at t=0

  const double integral =
      integrate_step_function(watts, sim.energy().metered_until());
  const double measured = sim.energy().cluster_joules();
  EXPECT_GT(measured, 0.0);
  // Same mathematical integral, different floating-point grouping (the meter
  // accumulates every assignment interval; the timeline collapses unchanged
  // values), hence a relative tolerance instead of exact equality.
  EXPECT_NEAR(integral, measured, 1e-9 * measured);
}

/// The two totals a short run reports, for one scheduler.
std::pair<double, double> run_joules(sched::Scheduler& scheduler, int nodes, int jobs,
                                     double interarrival) {
  sched::ClusterSimulation sim(sim_config(nodes),
                               workload::generate_trace(trace_config(jobs, interarrival)),
                               scheduler);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  return {sim.energy().cluster_joules(), sim.energy().overhead_joules()};
}

TEST(EnergyMeter, JoulesArePinnedBitForBit) {
  // Exact values, so a rewrite of the meter or of the draw decomposition
  // cannot hide a last-bit change behind a relative tolerance. ONES runs with
  // the lambda blend on and PowerCap admits by the same draw function, so
  // both pin the decisions that read watts as well as the bill. The ONES and
  // PowerCap runs are large enough that summing jobs in placement order
  // instead of JobId order moves the last bit.
  sched::FifoScheduler fifo;
  EXPECT_EQ(run_joules(fifo, 8, 48, 4.0),
            std::make_pair(12920453.813517302, 4987047.7645738861));
  core::OnesConfig cfg;
  cfg.evolution.lambda_energy = 0.25;
  core::OnesScheduler ones_sched(cfg);
  EXPECT_EQ(run_joules(ones_sched, 4, 24, 12.0),
            std::make_pair(5648787.8342255671, 1382899.1614605333));
  sched::PowerCapScheduler capped;
  EXPECT_EQ(run_joules(capped, 8, 48, 4.0),
            std::make_pair(14869487.936809799, 6991390.8496396123));
}

TEST(EnergyMeter, AttachingARegistryDoesNotChangeJoules) {
  const auto trace = workload::generate_trace(trace_config(10, 15));

  sched::FifoScheduler plain_sched;
  sched::ClusterSimulation plain(sim_config(), trace, plain_sched);
  plain.run();

  telemetry::MetricsRegistry registry;
  auto config = sim_config();
  config.metrics = &registry;
  sched::FifoScheduler instrumented_sched;
  sched::ClusterSimulation instrumented(config, trace, instrumented_sched);
  instrumented.run();

  // Bit-identical: instrumentation must never perturb the integral.
  EXPECT_EQ(plain.energy().cluster_joules(), instrumented.energy().cluster_joules());
  EXPECT_EQ(plain.energy().overhead_joules(),
            instrumented.energy().overhead_joules());

  // The registry's monotone counters agree with the meter's totals (same
  // deltas accumulated in the same order -> exactly equal).
  EXPECT_DOUBLE_EQ(registry.counter_value("energy_cluster_joules_total"),
                   instrumented.energy().cluster_joules());
  EXPECT_DOUBLE_EQ(registry.counter_value("energy_overhead_joules_total"),
                   instrumented.energy().overhead_joules());
}

TEST(EnergyMeter, LambdaZeroDecisionsAreIndependentOfPowerConstants) {
  // With lambda_energy = 0 the power model is purely observational: changing
  // the electrical constants rescales joules but must not move a single
  // scheduling decision (the golden-trace digest in trace_test.cpp pins the
  // same guarantee for the default constants).
  const auto trace = workload::generate_trace(trace_config(10, 12));

  core::OnesScheduler sched_a;
  sched::ClusterSimulation sim_a(sim_config(), trace, sched_a);
  sim_a.run();

  auto config = sim_config();
  config.power.gpu_idle_w = 10.0;
  config.power.gpu_busy_w = 700.0;
  config.power.node_base_w = 50.0;
  config.power.comm_power_fraction = 0.9;
  core::OnesScheduler sched_b;
  sched::ClusterSimulation sim_b(config, trace, sched_b);
  sim_b.run();

  EXPECT_EQ(sim_a.metrics().jct_by_job(), sim_b.metrics().jct_by_job());
  EXPECT_EQ(sim_a.metrics().makespan(), sim_b.metrics().makespan());
  EXPECT_NE(sim_a.energy().cluster_joules(), sim_b.energy().cluster_joules());
}

TEST(EnergyMeter, LambdaBlendChangesOnesDecisions) {
  // Sanity check that the fitness blend is actually wired through: a large
  // lambda_energy must be able to move at least one decision on a trace
  // where candidates differ in predicted draw.
  const auto trace = workload::generate_trace(trace_config(16, 8));

  core::OnesScheduler plain;
  sched::ClusterSimulation sim_plain(sim_config(), trace, plain);
  sim_plain.run();

  core::OnesConfig cfg;
  cfg.evolution.lambda_energy = 8.0;
  core::OnesScheduler blended(cfg);
  sched::ClusterSimulation sim_blended(sim_config(), trace, blended);
  sim_blended.run();

  EXPECT_TRUE(sim_plain.all_completed());
  EXPECT_TRUE(sim_blended.all_completed());
  EXPECT_NE(sim_plain.metrics().jct_by_job(), sim_blended.metrics().jct_by_job());
}

TEST(PowerCapScheduler, CompletesAllJobsUnderTheCap) {
  sched::PowerCapScheduler capped;
  telemetry::MetricsRegistry registry;
  auto config = sim_config();
  config.metrics = &registry;
  sched::ClusterSimulation sim(config, workload::generate_trace(trace_config(12, 10)),
                               capped);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_EQ(capped.name(), "PowerCap");
  EXPECT_GT(sim.energy().cluster_joules(), 0.0);
}

}  // namespace
}  // namespace ones::energy
