// Cross-module integration tests: all five schedulers on shared traces,
// metric consistency, mechanism cost differences, and scalability trends.
#include <gtest/gtest.h>

#include <memory>

#include "core/ones_scheduler.hpp"
#include "drl/drl_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/optimus.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "telemetry/metrics.hpp"
#include "workload/trace.hpp"

namespace ones {
namespace {

sched::SimulationConfig sim_config(int nodes) {
  sched::SimulationConfig c;
  c.topology.num_nodes = nodes;
  return c;
}

workload::TraceConfig trace_config(int jobs, double interarrival, std::uint64_t seed) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival;
  t.seed = seed;
  return t;
}

std::vector<std::unique_ptr<sched::Scheduler>> all_schedulers() {
  std::vector<std::unique_ptr<sched::Scheduler>> v;
  v.push_back(std::make_unique<core::OnesScheduler>());
  v.push_back(std::make_unique<sched::FifoScheduler>());
  v.push_back(std::make_unique<sched::TiresiasScheduler>());
  v.push_back(std::make_unique<sched::OptimusScheduler>());
  v.push_back(std::make_unique<sched::SrtfOracleScheduler>());
  v.push_back(std::make_unique<drl::DrlScheduler>());
  return v;
}

TEST(Integration, EverySchedulerFinishesTheSharedTrace) {
  const auto trace = workload::generate_trace(trace_config(16, 12, 5));
  for (auto& s : all_schedulers()) {
    sched::ClusterSimulation sim(sim_config(2), trace, *s);
    sim.run();
    EXPECT_TRUE(sim.all_completed()) << s->name();
    EXPECT_EQ(sim.metrics().completed(), 16u) << s->name();
  }
}

TEST(Integration, MetricsAreInternallyConsistent) {
  const auto trace = workload::generate_trace(trace_config(12, 15, 6));
  for (auto& s : all_schedulers()) {
    sched::ClusterSimulation sim(sim_config(2), trace, *s);
    sim.run();
    for (const auto& spec : trace) {
      const auto& j = sim.metrics().job(spec.id);
      EXPECT_TRUE(j.completed()) << s->name();
      EXPECT_GE(j.completion_s, j.arrival_s) << s->name();
      EXPECT_GE(j.exec_time_s, 0.0) << s->name();
      EXPECT_GE(j.queue_time(), -1e-6) << s->name();
      EXPECT_NEAR(j.jct(), j.exec_time_s + j.queue_time(), 1e-6) << s->name();
    }
    const double util = sim.metrics().avg_utilization(sim.topology().total_gpus(),
                                                      sim.metrics().makespan());
    EXPECT_GT(util, 0.0) << s->name();
    EXPECT_LE(util, 1.0) << s->name();
  }
}

TEST(Integration, EveryJobTrainsToItsConvergenceRule) {
  // Regardless of the scheduler, each job must log >= patience epochs and
  // end with validation accuracy at/above target.
  const auto trace = workload::generate_trace(trace_config(10, 15, 7));
  for (auto& s : all_schedulers()) {
    sched::ClusterSimulation sim(sim_config(2), trace, *s);
    sim.run();
    for (const auto& spec : trace) {
      const auto& v = sim.job_view(spec.id);
      EXPECT_GE(v.epoch_log.size(), 10u) << s->name();
      EXPECT_GE(v.epoch_log.back().val_accuracy,
                v.profile->target_accuracy - 0.02)
          << s->name() << " job " << spec.id;
    }
  }
}

TEST(Integration, ElasticMechanismBeatsCheckpointForSamePolicy) {
  // Run ONES's policy with both mechanisms: the elastic runtime must not be
  // slower overall (it re-configures at ~1 s instead of tens of seconds).
  class CheckpointOnes : public core::OnesScheduler {
   public:
    using core::OnesScheduler::OnesScheduler;
    std::string name() const override { return "ONES-ckpt"; }
    sched::ScalingMechanism mechanism() const override {
      return sched::ScalingMechanism::Checkpoint;
    }
  };
  const auto trace = workload::generate_trace(trace_config(20, 8, 8));
  double elastic_jct, ckpt_jct;
  {
    core::OnesScheduler s;
    sched::ClusterSimulation sim(sim_config(2), trace, s);
    sim.run();
    elastic_jct = telemetry::summarize("e", sim.metrics(), 8).avg_jct;
  }
  {
    CheckpointOnes s;
    sched::ClusterSimulation sim(sim_config(2), trace, s);
    sim.run();
    ckpt_jct = telemetry::summarize("c", sim.metrics(), 8).avg_jct;
  }
  EXPECT_LT(elastic_jct, ckpt_jct);
}

TEST(Integration, MoreGpusReduceAverageJct) {
  // The Fig 17 scalability trend, at test scale, for ONES and Tiresias.
  const auto trace = workload::generate_trace(trace_config(24, 6, 9));
  for (int pass = 0; pass < 2; ++pass) {
    double jct_small, jct_large;
    {
      std::unique_ptr<sched::Scheduler> s;
      if (pass == 0) {
        s = std::make_unique<core::OnesScheduler>();
      } else {
        s = std::make_unique<sched::TiresiasScheduler>();
      }
      sched::ClusterSimulation sim(sim_config(1), trace, *s);
      sim.run();
      jct_small = telemetry::summarize("s", sim.metrics(), 4).avg_jct;
    }
    {
      std::unique_ptr<sched::Scheduler> s;
      if (pass == 0) {
        s = std::make_unique<core::OnesScheduler>();
      } else {
        s = std::make_unique<sched::TiresiasScheduler>();
      }
      sched::ClusterSimulation sim(sim_config(4), trace, *s);
      sim.run();
      jct_large = telemetry::summarize("l", sim.metrics(), 16).avg_jct;
    }
    EXPECT_LT(jct_large, jct_small) << "pass " << pass;
  }
}

TEST(Integration, OptimusQueuingReflectsRoundBasedDesign) {
  // Round-based rescheduling: with arrivals spread uniformly, average
  // queuing should be on the order of half the 600 s interval or more.
  sched::OptimusScheduler optimus;
  const auto trace = workload::generate_trace(trace_config(16, 30, 10));
  sched::ClusterSimulation sim(sim_config(4), trace, optimus);
  sim.run();
  double total_queue = 0.0;
  for (double q : sim.metrics().queue_times()) total_queue += q;
  EXPECT_GT(total_queue / 16.0, 100.0);
}

TEST(Integration, SimulationRespectsMaxSimTime) {
  // A scheduler that never schedules strands the work; the driver must end
  // at the time limit without hanging or throwing.
  class NullScheduler : public sched::Scheduler {
   public:
    std::string name() const override { return "Null"; }
    std::optional<cluster::Assignment> on_event(const sched::ClusterState&,
                                                const sched::SchedulerEvent&) override {
      return std::nullopt;
    }
  };
  NullScheduler null_sched;
  auto cfg = sim_config(1);
  cfg.max_sim_time_s = 1000.0;
  sched::ClusterSimulation sim(cfg, workload::generate_trace(trace_config(4, 10, 11)),
                               null_sched);
  sim.run();
  EXPECT_FALSE(sim.all_completed());
  EXPECT_EQ(sim.completed_jobs(), 0u);
}

}  // namespace
}  // namespace ones
