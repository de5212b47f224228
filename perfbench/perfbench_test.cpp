// The decision timer must not change what any policy decides: for each of
// the seven policies, a run through TimedScheduler reproduces the plain
// run's outcome digest, its timer sees every decision the driver applies,
// and the trace sink reaches the wrapped policy.
#include <gtest/gtest.h>

#include "core/ones_scheduler.hpp"
#include "timed_scheduler.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "workloads.hpp"

namespace ones::perfbench {
namespace {

sched::SimulationConfig small_cluster() {
  sched::SimulationConfig sim = cluster_of(4);  // 16 GPUs
  sim.fault.gpu_mtbf_s = 8000.0;                // exercise CapacityChange too
  return sim;
}

TEST(TimedScheduler, DecoratedEqualsPlainForAllPolicies) {
  const auto trace = workload::generate_trace(table2_trace(24, 20.0, 5));
  for (const auto& [name, make] : policy_factories()) {
    SCOPED_TRACE(name);
    auto plain_policy = make();
    sched::ClusterSimulation plain(small_cluster(), trace, *plain_policy);
    plain.run();

    auto inner = make();
    DecisionStats stats;
    TimedScheduler timed(*inner, stats);
    EXPECT_EQ(timed.name(), inner->name());
    EXPECT_EQ(timed.mechanism(), inner->mechanism());
    EXPECT_EQ(timed.period_s(), inner->period_s());
    sched::ClusterSimulation decorated(small_cluster(), trace, timed);
    decorated.run();

    ASSERT_TRUE(plain.all_completed());
    EXPECT_EQ(outcome_digest(decorated, name), outcome_digest(plain, name));
    EXPECT_EQ(stats.deployments(), decorated.deployments());
    EXPECT_GT(stats.pooled().count(), 0U);
  }
}

TEST(TimedScheduler, ForwardsTraceSinkToWrappedPolicy) {
  const auto trace = workload::generate_trace(table2_trace(12, 20.0, 3));
  core::OnesScheduler ones;
  DecisionStats stats;
  TimedScheduler timed(ones, stats);
  trace::RecordBufferSink sink;
  sched::SimulationConfig sim = cluster_of(2);
  sim.trace_sink = &sink;
  sched::ClusterSimulation run(sim, trace, timed);
  run.run();
  std::size_t steps = 0;
  for (const auto& r : sink.records()) {
    if (r.kind == trace::RecordKind::EvolutionStep) ++steps;
  }
  EXPECT_GT(steps, 0U);
}

TEST(LatencyHistogram, QuantilesTrackSamples) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1; ns <= 100000; ++ns) h.record(ns);
  EXPECT_EQ(h.count(), 100000U);
  EXPECT_NEAR(h.quantile_ns(0.5), 50000.0, 50000.0 * 0.01);
  EXPECT_NEAR(h.quantile_ns(0.99), 99000.0, 99000.0 * 0.01);
  EXPECT_EQ(h.beyond(0.99), 1000U);
  EXPECT_EQ(h.quantile_ns(0.0001), 10.0);
}

}  // namespace
}  // namespace ones::perfbench
