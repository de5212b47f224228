// Edge-case tests for the simulation driver: same-instant event ordering,
// burst arrivals, minimal clusters, heavyweight-model traces, no-op
// assignments, disabled epoch logs and oracle noise.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/ones_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "sched/tiresias.hpp"
#include "telemetry/metrics.hpp"
#include "workload/trace.hpp"

namespace ones::sched {
namespace {

workload::JobSpec make_spec(JobId id, const char* model, std::int64_t dataset,
                            double arrival, int gpus = 1) {
  workload::JobSpec s;
  s.id = id;
  s.variant = {model, "edge", dataset, 10};
  s.arrival_time_s = arrival;
  s.requested_gpus = gpus;
  const auto& p = model::profile_by_name(model);
  s.requested_batch = std::min(p.b_ref, p.max_local_batch) * gpus;
  s.dynamics_seed = static_cast<std::uint64_t>(id) + 1;
  return s;
}

SimulationConfig config_with(int nodes, int gpus_per_node = 4) {
  SimulationConfig c;
  c.topology.num_nodes = nodes;
  c.topology.gpus_per_node = gpus_per_node;
  return c;
}

/// The std::logic_error message `fn` throws; "" when it throws none.
template <typename Fn>
std::string logic_error_of(Fn fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

// JobIds index the driver's per-job tables, so a trace must number its jobs
// 0..N-1 (in any order), each once; the message names the offending id.
TEST(SimEdge, TraceIdsMustBeDenseFromZero) {
  const auto rejects = [](const std::vector<JobId>& ids) {
    std::vector<workload::JobSpec> trace;
    for (const JobId id : ids) trace.push_back(make_spec(id, "ResNet18", 20000, 0.0));
    FifoScheduler fifo;
    return logic_error_of([&] { ClusterSimulation sim(config_with(1), trace, fifo); });
  };
  EXPECT_NE(rejects({0, 2}).find("offending id 2"), std::string::npos);  // gap
  EXPECT_NE(rejects({0, 1, 1}).find("offending id 1"), std::string::npos);  // duplicate
  EXPECT_NE(rejects({-1, 0}).find("offending id -1"), std::string::npos);  // negative
  EXPECT_EQ(rejects({2, 0, 1}), "");  // a permutation is fine
}

TEST(SimEdge, JobViewRejectsIdsOutsideTheTrace) {
  std::vector<workload::JobSpec> trace = {make_spec(1, "ResNet18", 20000, 0.0),
                                          make_spec(0, "GoogleNet", 20000, 1.0)};
  FifoScheduler fifo;
  ClusterSimulation sim(config_with(1), trace, fifo);
  EXPECT_EQ(sim.job_view(1).spec.variant.model_name, "ResNet18");
  EXPECT_NE(logic_error_of([&] { sim.job_view(-1); }).find("unknown job id"),
            std::string::npos);
  EXPECT_NE(logic_error_of([&] { sim.job_view(2); }).find("unknown job id"),
            std::string::npos);
}

TEST(SimEdge, SingleGpuClusterSerializesEverything) {
  std::vector<workload::JobSpec> trace = {
      make_spec(0, "ResNet18", 20000, 0.0),
      make_spec(1, "GoogleNet", 20000, 1.0),
      make_spec(2, "VGG16-CIFAR", 20000, 2.0),
  };
  FifoScheduler fifo;
  ClusterSimulation sim(config_with(1, 1), trace, fifo);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  // One GPU: completions are strictly ordered and never overlap.
  const auto& m = sim.metrics();
  EXPECT_LT(m.job(0).completion_s, m.job(1).completion_s);
  EXPECT_LT(m.job(1).completion_s, m.job(2).completion_s);
  // Utilization near 1 while draining a serialized backlog.
  EXPECT_GT(m.avg_utilization(1, m.makespan()), 0.9);
}

TEST(SimEdge, BurstArrivalsAtTimeZero) {
  std::vector<workload::JobSpec> trace;
  for (JobId j = 0; j < 12; ++j) {
    trace.push_back(make_spec(j, "ResNet18", 20000, 0.0));
  }
  core::OnesScheduler s;
  ClusterSimulation sim(config_with(2), trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
}

TEST(SimEdge, ArrivalAndCompletionOrderingIsDeterministic) {
  // Two identical runs with simultaneous events must agree exactly.
  std::vector<workload::JobSpec> trace;
  for (JobId j = 0; j < 8; ++j) {
    trace.push_back(make_spec(j, "GoogleNet", 25000, static_cast<double>(j / 2) * 10.0));
  }
  auto run = [&] {
    TiresiasScheduler s;
    ClusterSimulation sim(config_with(2), trace, s);
    sim.run();
    return sim.metrics().jcts();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(SimEdge, HeavyModelOnlyTrace) {
  // BERT everywhere: large all-reduce payloads, small reference batches.
  std::vector<workload::JobSpec> trace;
  for (JobId j = 0; j < 6; ++j) {
    trace.push_back(make_spec(j, "BERT", 5000, 15.0 * static_cast<double>(j), 2));
  }
  core::OnesScheduler s;
  ClusterSimulation sim(config_with(2), trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
}

// Returns the current assignment unchanged on every event: the driver must
// treat it as a no-op (no costs charged, jobs keep running).
class EchoScheduler : public Scheduler {
 public:
  std::string name() const override { return "Echo"; }
  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override {
    if (event.kind == EventKind::JobArrival && state.current->idle_count() > 0) {
      cluster::Assignment a = *state.current;
      const auto* job = state.job(event.job);
      a.place(a.idle_gpus().front(), event.job,
              std::min(job->spec.requested_batch, job->profile->max_local_batch));
      return a;
    }
    return *state.current;  // pure echo: must not disturb anything
  }
};

TEST(SimEdge, EchoAssignmentsAreFreeNoOps) {
  std::vector<workload::JobSpec> trace = {make_spec(0, "ResNet18", 20000, 0.0)};
  double echo_jct, fifo_jct;
  {
    EchoScheduler s;
    ClusterSimulation sim(config_with(1), trace, s);
    sim.run();
    ASSERT_TRUE(sim.all_completed());
    echo_jct = sim.metrics().job(0).jct();
  }
  {
    FifoScheduler s;
    ClusterSimulation sim(config_with(1), trace, s);
    sim.run();
    fifo_jct = sim.metrics().job(0).jct();
  }
  // Echoing the schedule on every epoch must not add any re-config cost.
  EXPECT_DOUBLE_EQ(echo_jct, fifo_jct);
}

TEST(SimEdge, DisabledEpochLogsStillCompleteAndCount) {
  auto cfg = config_with(2);
  cfg.record_epoch_logs = false;
  std::vector<workload::JobSpec> trace = {make_spec(0, "ResNet18", 20000, 0.0),
                                          make_spec(1, "GoogleNet", 20000, 5.0)};
  FifoScheduler s;
  ClusterSimulation sim(cfg, trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_TRUE(sim.job_view(0).epoch_log.empty());
  EXPECT_GT(sim.job_view(0).epochs_completed, 10);
}

TEST(SimEdge, OracleNoiseDoesNotBreakSchedulers) {
  auto cfg = config_with(2);
  cfg.oracle.noise_sigma = 0.25;  // heavy profiling error
  workload::TraceConfig tc;
  tc.num_jobs = 10;
  tc.mean_interarrival_s = 10.0;
  tc.seed = 51;
  core::OnesScheduler s;
  ClusterSimulation sim(cfg, workload::generate_trace(tc), s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
}

TEST(SimEdge, TinyDatasetManyEpochs) {
  // MRPC-sized dataset: epochs are seconds long; event churn is high.
  std::vector<workload::JobSpec> trace = {make_spec(0, "BERT", 3600, 0.0)};
  core::OnesScheduler s;
  ClusterSimulation sim(config_with(1), trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_GE(sim.job_view(0).epochs_completed, 13);  // 4 + 10 - 1
}

TEST(SimEdge, LateArrivalAfterClusterDrains) {
  std::vector<workload::JobSpec> trace = {make_spec(0, "ResNet18", 20000, 0.0),
                                          make_spec(1, "ResNet18", 20000, 5000.0)};
  core::OnesScheduler s;
  ClusterSimulation sim(config_with(1), trace, s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  // The late job starts essentially immediately on the empty cluster.
  // Never preempted, so all its queueing time precedes its first start.
  const auto& m = sim.metrics().job(1);
  EXPECT_EQ(m.preemptions, 0);
  EXPECT_LT(m.queue_time(), 1.0);
}

}  // namespace
}  // namespace ones::sched
