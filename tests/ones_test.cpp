// End-to-end tests of the ONES scheduler on the simulation driver:
// completion, elastic mechanism semantics, update pacing, responsiveness,
// predictor learning, and ablation configurations.
#include <gtest/gtest.h>

#include "core/ones_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "telemetry/metrics.hpp"
#include "workload/trace.hpp"

namespace ones::core {
namespace {

sched::SimulationConfig sim_config(int nodes = 2) {
  sched::SimulationConfig c;
  c.topology.num_nodes = nodes;
  return c;
}

workload::TraceConfig trace_config(int jobs, double interarrival, std::uint64_t seed = 21) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival;
  t.seed = seed;
  return t;
}

TEST(OnesScheduler, CompletesAllJobs) {
  OnesScheduler ones_sched;
  sched::ClusterSimulation sim(sim_config(), workload::generate_trace(trace_config(12, 20)),
                               ones_sched);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_GT(ones_sched.evolution_rounds(), 0u);
}

TEST(OnesScheduler, UsesElasticMechanism) {
  OnesScheduler s;
  EXPECT_EQ(s.mechanism(), sched::ScalingMechanism::Elastic);
  EXPECT_EQ(s.name(), "ONES");
  EXPECT_DOUBLE_EQ(s.period_s(), 0.0);  // event-driven, not interval-based
}

TEST(OnesScheduler, ElasticBatchesActuallyGrow) {
  // With a lightly loaded cluster ONES should scale at least some jobs past
  // their submitted batch size — the core claim of the paper.
  OnesScheduler ones_sched;
  auto tc = trace_config(8, 60);
  const auto trace = workload::generate_trace(tc);
  sched::ClusterSimulation sim(sim_config(4), trace, ones_sched);
  sim.run();
  ASSERT_TRUE(sim.all_completed());
  int grew = 0;
  for (const auto& spec : trace) {
    const auto& v = sim.job_view(spec.id);
    for (const auto& e : v.epoch_log) {
      if (e.global_batch > spec.requested_batch) {
        ++grew;
        break;
      }
    }
  }
  EXPECT_GT(grew, 0);
}

TEST(OnesScheduler, BatchNeverExceedsGpuMemoryPerWorker) {
  OnesScheduler ones_sched;
  const auto trace = workload::generate_trace(trace_config(10, 15));
  sched::ClusterSimulation sim(sim_config(), trace, ones_sched);
  sim.run();
  // The driver validates every assignment; reaching completion proves no
  // memory violation was ever deployed.
  EXPECT_TRUE(sim.all_completed());
}

TEST(OnesScheduler, BatchGrowthIsGradual) {
  // No deployed re-configuration may more than double a job's batch
  // (the Fig 13 safeguard).
  OnesScheduler ones_sched;
  const auto trace = workload::generate_trace(trace_config(8, 30));
  sched::ClusterSimulation sim(sim_config(), trace, ones_sched);
  sim.run();
  for (const auto& spec : trace) {
    const auto& v = sim.job_view(spec.id);
    for (std::size_t i = 1; i < v.epoch_log.size(); ++i) {
      const int prev = v.epoch_log[i - 1].global_batch;
      const int cur = v.epoch_log[i].global_batch;
      if (prev > 0) {
        // Each re-configuration doubles at most; arrivals/completions can
        // trigger two deployments within one epoch, so allow 4x between
        // consecutive epoch boundaries.
        EXPECT_LE(cur, 4 * prev)
            << "job " << spec.id << " jumped " << prev << " -> " << cur;
      }
    }
  }
}

TEST(OnesScheduler, PredictorLearnsFromCompletions) {
  OnesScheduler ones_sched;
  sched::ClusterSimulation sim(sim_config(), workload::generate_trace(trace_config(12, 15)),
                               ones_sched);
  sim.run();
  EXPECT_TRUE(ones_sched.predictor().trained());
  EXPECT_GT(ones_sched.predictor().training_points(), 20u);
}

TEST(OnesScheduler, RespondsImmediatelyToArrivalsOnIdleCluster) {
  // A single job arriving to an empty cluster must start right away (no
  // rescheduling-interval wait — the §2.1 critique of interval schedulers).
  OnesScheduler ones_sched;
  auto tc = trace_config(1, 1000);
  sched::ClusterSimulation sim(sim_config(), workload::generate_trace(tc), ones_sched);
  sim.run();
  // Never preempted, so all its queueing time precedes its first start.
  const auto& job = sim.metrics().job(0);
  EXPECT_EQ(job.preemptions, 0);
  EXPECT_LT(job.queue_time(), 1.0);
}

TEST(OnesScheduler, DeploysLessOftenThanItEvolves) {
  // The update condition paces deployments: many evolution rounds per
  // deployed schedule.
  OnesScheduler ones_sched;
  sched::ClusterSimulation sim(sim_config(), workload::generate_trace(trace_config(10, 10)),
                               ones_sched);
  sim.run();
  EXPECT_GT(ones_sched.evolution_rounds(), sim.deployments());
}

TEST(OnesScheduler, AblationNoPredictorStillCompletes) {
  OnesConfig cfg;
  cfg.use_predictor = false;
  OnesScheduler s(cfg);
  sched::ClusterSimulation sim(sim_config(), workload::generate_trace(trace_config(10, 15)),
                               s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_FALSE(s.predictor().trained());  // never fed
}

TEST(OnesScheduler, AblationOperatorsOffStillCompletes) {
  OnesConfig cfg;
  cfg.evolution.use_crossover = false;
  cfg.evolution.use_mutation = false;
  cfg.evolution.use_reorder = false;
  OnesScheduler s(cfg);
  sched::ClusterSimulation sim(sim_config(), workload::generate_trace(trace_config(10, 15)),
                               s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
}

TEST(OnesScheduler, BeatsFifoUnderContention) {
  // The headline claim, at test scale: contended cluster, ONES's average
  // JCT should not lose to FIFO gang scheduling.
  auto tc = trace_config(40, 5, 33);
  const auto trace = workload::generate_trace(tc);
  double ones_jct, fifo_jct;
  {
    OnesScheduler s;
    sched::ClusterSimulation sim(sim_config(4), trace, s);
    sim.run();
    EXPECT_TRUE(sim.all_completed());
    ones_jct = telemetry::summarize("o", sim.metrics(), 16).avg_jct;
  }
  {
    sched::FifoScheduler s;
    sched::ClusterSimulation sim(sim_config(4), trace, s);
    sim.run();
    fifo_jct = telemetry::summarize("f", sim.metrics(), 16).avg_jct;
  }
  EXPECT_LT(ones_jct, fifo_jct * 1.1);
}

TEST(OnesScheduler, DeterministicGivenSeeds) {
  const auto trace = workload::generate_trace(trace_config(10, 15));
  double a, b;
  {
    OnesScheduler s;
    sched::ClusterSimulation sim(sim_config(), trace, s);
    sim.run();
    a = telemetry::summarize("o", sim.metrics(), 8).avg_jct;
  }
  {
    OnesScheduler s;
    sched::ClusterSimulation sim(sim_config(), trace, s);
    sim.run();
    b = telemetry::summarize("o", sim.metrics(), 8).avg_jct;
  }
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace ones::core
