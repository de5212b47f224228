// Hyperscale smoke (time-boxed ~1k-GPU / 10k-job slice).
//
// Runs ONES end-to-end on the hyperscale trace generator (8-GPU job class +
// diurnal arrival modulation), replays the emitted trace through
// trace::TraceReplayer (invariants I1-I8, DESIGN.md §8) and pins summary()
// to golden values captured on the seed engine (std::priority_queue with
// hash-map callbacks and full rescans). The goldens are bit-exact
// (EXPECT_DOUBLE_EQ): the production event engine and the incremental
// scheduler-state indices are required to be decision-identical, so any
// drift here is a semantics regression, not noise.
#include <gtest/gtest.h>

#include <memory>

#include "core/ones_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

namespace ones {
namespace {

sched::SimulationConfig hyperscale_slice_config() {
  sched::SimulationConfig c;
  c.topology.num_nodes = 250;  // 1000 GPUs
  // Time box: a correct run would take ~hours of sim time to drain 10k jobs;
  // the smoke slice stops here and scores whatever completed.
  c.max_sim_time_s = 120.0;
  return c;
}

workload::TraceConfig hyperscale_slice_trace() {
  workload::TraceConfig t;
  t.num_jobs = 10000;
  t.mean_interarrival_s = 3.0;
  t.seed = 17;
  t.max_requested_gpus = 8;
  t.diurnal_amplitude = 0.4;
  // Abnormal endings give the time-boxed slice real completions (aborts
  // count), so the JCT goldens are nonzero without draining whole jobs.
  t.abnormal_fraction = 0.3;
  t.abnormal_mean_lifetime_s = 80.0;
  return t;
}

core::OnesConfig small_population_ones() {
  core::OnesConfig c;
  // Default population (0 = cluster size) would be 1000 candidates per
  // round; the smoke slice wants ONES mechanics, not ONES at full depth.
  c.evolution.population_size = 2;
  return c;
}

TEST(Hyperscale, OnesSliceMatchesGoldenSummaryAndReplays) {
  trace::RecordBufferSink buffer;
  auto config = hyperscale_slice_config();
  config.trace_sink = &buffer;

  core::OnesScheduler scheduler(small_population_ones());
  sched::ClusterSimulation sim(config, workload::generate_trace(hyperscale_slice_trace()),
                               scheduler);
  sim.run();

  // The slice must do real work: dozens of arrivals, some completions.
  const auto summary = sim.summary("ONES");
  EXPECT_GT(summary.jobs, 4u);
  EXPECT_GT(sim.deployments(), 20u);

  // Structural legality of the full emitted stream (I1-I8).
  const auto report = trace::TraceReplayer{}.check(buffer.records());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.records, 1000u);

  // ---- Goldens captured on the pre-change engine (priority_queue + full
  // rescans). Do not re-pin to silence a failure you cannot explain.
  EXPECT_EQ(summary.jobs, 9u);
  EXPECT_EQ(sim.completed_jobs(), 14u);
  EXPECT_EQ(sim.deployments(), 48u);
  EXPECT_DOUBLE_EQ(summary.avg_jct, 75.411977956476463);
  EXPECT_DOUBLE_EQ(summary.avg_exec, 75.411977956476463);
  EXPECT_DOUBLE_EQ(summary.avg_queue, 0.0);
  EXPECT_DOUBLE_EQ(summary.makespan, 119.26981361585968);
  EXPECT_DOUBLE_EQ(summary.utilization, 0.19751458873993682);
  EXPECT_DOUBLE_EQ(summary.cluster_joules, 20789325.431679923);
}

// The FIFO slice exists to bound the cheap-scheduler hot path as well (the
// incremental indices, not the evolutionary search, dominate it).
TEST(Hyperscale, FifoSliceMatchesGoldenSummary) {
  auto config = hyperscale_slice_config();
  sched::FifoScheduler scheduler(/*backfill=*/true);
  sched::ClusterSimulation sim(config, workload::generate_trace(hyperscale_slice_trace()),
                               scheduler);
  sim.run();

  const auto summary = sim.summary("FIFO-BF");
  EXPECT_EQ(summary.jobs, 2u);
  EXPECT_EQ(sim.deployments(), 41u);
  EXPECT_DOUBLE_EQ(summary.avg_jct, 89.030744891826799);
  EXPECT_DOUBLE_EQ(summary.makespan, 115.20787516765083);
  EXPECT_DOUBLE_EQ(summary.cluster_joules, 18202236.073582184);
}

}  // namespace
}  // namespace ones
