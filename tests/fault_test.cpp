// Deterministic fault injection + recovery (DESIGN.md §13): the injector's
// schedule is a pure function of its seed; the driver keeps health in sync
// with the incremental indexes (I9) and every failure-impacted job recovers
// or aborts with its lost work accounted (I10).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "cluster/fault.hpp"
#include "core/ones_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/gandiva.hpp"
#include "sched/optimus.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "sim/engine.hpp"
#include "telemetry/registry.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

namespace ones {
namespace {

sched::SimulationConfig faulty_config(double gpu_mtbf = 4000.0,
                                      double node_mtbf = 0.0) {
  sched::SimulationConfig c;
  c.topology.num_nodes = 2;
  c.fault.gpu_mtbf_s = gpu_mtbf;
  c.fault.gpu_repair_s = 60.0;
  c.fault.node_mtbf_s = node_mtbf;
  c.fault.node_repair_s = 120.0;
  return c;
}

workload::TraceConfig small_trace_config(int jobs = 24, std::uint64_t seed = 7) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = 15.0;
  t.seed = seed;
  return t;
}

TEST(FaultConfig, DefaultsAreDisabledAndValid) {
  cluster::FaultConfig f;
  EXPECT_FALSE(f.enabled());
  EXPECT_NO_THROW(f.validate());
  f.gpu_mtbf_s = 1000.0;
  EXPECT_TRUE(f.enabled());
  f.gpu_mtbf_s = 0.0;
  f.spot_fraction = 0.5;  // spot nodes without a reclaim rate: still disabled
  EXPECT_FALSE(f.enabled());
  f.reclaim_mtbf_s = 1000.0;
  EXPECT_TRUE(f.enabled());
}

TEST(FaultConfig, ValidateRejectsNonsense) {
  cluster::FaultConfig f;
  f.gpu_mtbf_s = -1.0;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = {};
  f.spot_fraction = 1.5;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = {};
  f.gpu_mtbf_s = 1000.0;
  f.gpu_repair_s = 0.0;  // enabled process must be repairable
  EXPECT_THROW(f.validate(), std::logic_error);
  f = {};
  f.max_restarts = -1;
  EXPECT_THROW(f.validate(), std::logic_error);
}

TEST(FaultConfig, SpotNodeCountIsTheTailOfTheIdRange) {
  cluster::FaultConfig f;
  EXPECT_EQ(cluster::spot_node_count(f, 8), 0);
  f.spot_fraction = 0.25;
  EXPECT_EQ(cluster::spot_node_count(f, 8), 2);
  f.spot_fraction = 1.0;
  EXPECT_EQ(cluster::spot_node_count(f, 8), 8);
  f.spot_fraction = 0.3;  // rounds down
  EXPECT_EQ(cluster::spot_node_count(f, 8), 2);
}

/// Run an injector on a bare engine and record every health change.
using HealthLog = std::vector<std::tuple<double, GpuId, cluster::SlotHealth>>;

HealthLog injector_log(const cluster::FaultConfig& fault, bool extra_events) {
  cluster::TopologyConfig tc;
  tc.num_nodes = 2;
  const cluster::Topology topo(tc);
  sim::SimEngine engine;
  cluster::FaultInjector injector(fault, topo);
  HealthLog log;
  injector.start(engine, [&](const std::vector<cluster::HealthChange>& changes) {
    for (const auto& ch : changes) {
      log.emplace_back(engine.now(), ch.gpu, ch.health);
      // The hook's report and the injector's view must agree at hook time.
      EXPECT_EQ(injector.health(ch.gpu), ch.health);
    }
  });
  if (extra_events) {
    // Unrelated simulation activity must not perturb the fault schedule.
    for (int i = 0; i < 50; ++i) {
      engine.schedule_at(100.0 * i + 1.0, [] {});
    }
  }
  engine.run_until(20000.0);
  injector.halt();
  return log;
}

TEST(FaultInjector, ScheduleIsAPureFunctionOfTheSeed) {
  cluster::FaultConfig f;
  f.gpu_mtbf_s = 2000.0;
  f.gpu_repair_s = 100.0;
  f.node_mtbf_s = 6000.0;
  f.node_repair_s = 300.0;
  f.spot_fraction = 0.5;
  f.reclaim_mtbf_s = 8000.0;
  const auto a = injector_log(f, /*extra_events=*/false);
  const auto b = injector_log(f, /*extra_events=*/false);
  const auto c = injector_log(f, /*extra_events=*/true);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // A different seed gives a different schedule.
  f.seed += 1;
  EXPECT_NE(a, injector_log(f, false));
}

TEST(FaultInjector, FailedTakesPrecedenceOverReclaimed) {
  // Every node is spot capacity and every process is fast, so overlaps of
  // node-down and reclaim-down windows are common. Whenever a GPU's node
  // process is down its effective health must read Failed, never Reclaimed.
  cluster::FaultConfig f;
  f.node_mtbf_s = 500.0;
  f.node_repair_s = 500.0;
  f.spot_fraction = 1.0;
  f.reclaim_mtbf_s = 500.0;
  f.reclaim_return_s = 500.0;
  const auto log = injector_log(f, false);
  bool saw_failed = false, saw_reclaimed = false;
  for (const auto& [t, gpu, health] : log) {
    saw_failed |= health == cluster::SlotHealth::Failed;
    saw_reclaimed |= health == cluster::SlotHealth::Reclaimed;
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_reclaimed);
}

/// Drive one scheduler through a faulty run with the incremental-index audit
/// on and the full trace captured, then replay-check I1..I10.
void expect_clean_chaos_run(sched::Scheduler& scheduler, const char* name) {
  SCOPED_TRACE(name);
  auto config = faulty_config(/*gpu_mtbf=*/3000.0, /*node_mtbf=*/15000.0);
  config.audit_incremental = true;
  trace::RecordBufferSink buffer;
  config.trace_sink = &buffer;
  const auto trace = workload::generate_trace(small_trace_config());
  sched::ClusterSimulation sim(config, trace, scheduler);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  const auto report = trace::TraceReplayer().check(buffer.records());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultSim, EverySchedulerSurvivesChaosWithInvariantsIntact) {
  {
    core::OnesScheduler s;
    expect_clean_chaos_run(s, "ONES");
  }
  {
    sched::FifoScheduler s;
    expect_clean_chaos_run(s, "FIFO");
  }
  {
    sched::TiresiasScheduler s;
    expect_clean_chaos_run(s, "Tiresias");
  }
  {
    sched::OptimusScheduler s;
    expect_clean_chaos_run(s, "Optimus");
  }
  {
    sched::SrtfOracleScheduler s;
    expect_clean_chaos_run(s, "SRTF*");
  }
  {
    sched::GandivaScheduler s;
    expect_clean_chaos_run(s, "Gandiva");
  }
}

TEST(FaultSim, ElasticSchedulersShrinkInsteadOfRestarting) {
  core::OnesScheduler s;
  auto config = faulty_config(/*gpu_mtbf=*/2500.0);
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  const auto trace = workload::generate_trace(small_trace_config());
  sched::ClusterSimulation sim(config, trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  ASSERT_NE(registry.find_counter("fault_gpu_down_total"), nullptr);
  EXPECT_GT(registry.counter("fault_gpu_down_total").value(), 0.0);
  EXPECT_GT(registry.counter("fault_job_shrinks_total").value(), 0.0);
}

TEST(FaultSim, CheckpointSchedulersRestartAndAccountLostWork) {
  sched::FifoScheduler s;
  auto config = faulty_config(/*gpu_mtbf=*/1200.0);
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  const auto trace = workload::generate_trace(small_trace_config());
  sched::ClusterSimulation sim(config, trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_GT(registry.counter("fault_job_restarts_total").value(), 0.0);
  EXPECT_GT(registry.counter("fault_lost_gpu_seconds_total").value(), 0.0);
}

/// Pairs each checkpoint-restart's redo cost with the job's productive time
/// at the failure (exec time is frozen while the job waits to restart).
class RestartProbe final : public trace::TraceSink {
 public:
  struct Restart {
    double redo_s;
    double exec_s;
  };

  void on_record(const trace::TraceRecord& r) override {
    if (r.kind == trace::RecordKind::JobRecovered && r.detail == "restart") {
      restarts_.push_back({r.cost_s, sim_->job_view(r.job).exec_time_s});
    }
  }
  void attach(const sched::ClusterSimulation& sim) { sim_ = &sim; }
  const std::vector<Restart>& restarts() const { return restarts_; }

 private:
  const sched::ClusterSimulation* sim_ = nullptr;
  std::vector<Restart> restarts_;
};

// The redone work is the productive time since the last checkpoint:
// exec mod checkpoint_interval_s, so always in [0, interval).
TEST(FaultSim, RestartRedoesOnlyTheWorkSinceTheLastCheckpoint) {
  sched::FifoScheduler s;
  auto config = faulty_config(/*gpu_mtbf=*/1200.0);
  config.fault.checkpoint_interval_s = 40.0;
  RestartProbe probe;
  config.trace_sink = &probe;
  const auto trace = workload::generate_trace(small_trace_config());
  sched::ClusterSimulation sim(config, trace, s);
  probe.attach(sim);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  ASSERT_FALSE(probe.restarts().empty());
  const double interval = config.fault.checkpoint_interval_s;
  bool past_a_checkpoint = false;
  for (const auto& r : probe.restarts()) {
    EXPECT_GE(r.redo_s, 0.0);
    EXPECT_LT(r.redo_s, interval);
    EXPECT_NEAR(r.redo_s, std::fmod(r.exec_s, interval), 1e-6);
    if (r.exec_s > interval) past_a_checkpoint = true;
  }
  EXPECT_TRUE(past_a_checkpoint);
}

TEST(FaultSim, ExhaustedRetriesAbortTheJob) {
  sched::FifoScheduler s;
  auto config = faulty_config(/*gpu_mtbf=*/800.0);
  config.fault.gpu_repair_s = 30.0;
  config.fault.max_restarts = 0;  // first restart already exhausts the budget
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  trace::RecordBufferSink buffer;
  config.trace_sink = &buffer;
  const auto trace = workload::generate_trace(small_trace_config());
  sched::ClusterSimulation sim(config, trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_GT(sim.metrics().aborted(), 0u);
  EXPECT_GT(registry.counter("fault_jobs_aborted_total").value(), 0.0);
  bool saw_exhausted = false;
  for (const auto& r : buffer.records()) {
    if (r.kind == trace::RecordKind::JobCompleted && r.aborted &&
        r.detail == "retries_exhausted") {
      saw_exhausted = true;
    }
  }
  EXPECT_TRUE(saw_exhausted);
  // The replay invariants hold even with aborts in the mix.
  const auto report = trace::TraceReplayer().check(buffer.records());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultSim, SameSeedRunsAreIdentical) {
  auto run = [] {
    core::OnesScheduler s;
    auto config = faulty_config(/*gpu_mtbf=*/2500.0, /*node_mtbf=*/15000.0);
    const auto trace = workload::generate_trace(small_trace_config());
    sched::ClusterSimulation sim(config, trace, s);
    sim.run();
    return std::make_tuple(sim.events_fired(), sim.deployments(),
                           sim.summary("ONES").avg_jct,
                           sim.metrics().aborted());
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultSim, DisabledFaultsLeaveTheRunUntouched) {
  auto run = [](const cluster::FaultConfig& fault) {
    sched::FifoScheduler s;
    sched::SimulationConfig config;
    config.topology.num_nodes = 2;
    config.fault = fault;
    const auto trace = workload::generate_trace(small_trace_config());
    sched::ClusterSimulation sim(config, trace, s);
    sim.run();
    return std::make_tuple(sim.events_fired(), sim.deployments(),
                           sim.summary("FIFO").avg_jct);
  };
  cluster::FaultConfig off;
  off.seed = 12345;  // a disabled injector's seed must not matter
  EXPECT_EQ(run({}), run(off));
}

}  // namespace
}  // namespace ones
