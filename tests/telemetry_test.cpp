// Unit tests for src/telemetry: JCT decomposition into execution and
// queuing time, utilization integral, summaries.
#include <gtest/gtest.h>

#include "telemetry/metrics.hpp"

namespace ones::telemetry {
namespace {

TEST(Metrics, JctDecomposition) {
  MetricsCollector m;
  m.on_submit(1, 10.0);
  m.on_run_start(1, 15.0);   // queued 5 s
  m.on_run_end(1, 40.0, true);  // ran 25 s, preempted
  m.on_run_start(1, 50.0);   // queued 10 s more
  m.on_run_end(1, 70.0, false);
  m.on_complete(1, 70.0);

  const auto& j = m.job(1);
  EXPECT_TRUE(j.completed());
  EXPECT_DOUBLE_EQ(j.jct(), 60.0);
  EXPECT_DOUBLE_EQ(j.exec_time_s, 45.0);
  EXPECT_DOUBLE_EQ(j.queue_time(), 15.0);
  EXPECT_EQ(j.preemptions, 1);
}

TEST(Metrics, VectorsOnlyIncludeCompleted) {
  MetricsCollector m;
  m.on_submit(1, 0.0);
  m.on_submit(2, 0.0);
  m.on_run_start(1, 0.0);
  m.on_run_end(1, 10.0, false);
  m.on_complete(1, 10.0);
  EXPECT_EQ(m.submitted(), 2u);
  EXPECT_EQ(m.completed(), 1u);
  EXPECT_EQ(m.jcts().size(), 1u);
  EXPECT_EQ(m.exec_times().size(), 1u);
  EXPECT_EQ(m.queue_times().size(), 1u);
  EXPECT_EQ(m.jct_by_job().count(1), 1u);
  EXPECT_EQ(m.jct_by_job().count(2), 0u);
}

TEST(Metrics, RejectsProtocolViolations) {
  MetricsCollector m;
  EXPECT_THROW(m.on_run_start(9, 0.0), std::logic_error);  // unknown job
  m.on_submit(1, 0.0);
  EXPECT_THROW(m.on_run_end(1, 1.0, false), std::logic_error);  // not running
  m.on_run_start(1, 1.0);
  EXPECT_THROW(m.on_run_start(1, 2.0), std::logic_error);  // already running
  EXPECT_THROW(m.on_complete(1, 3.0), std::logic_error);   // still running
  m.on_run_end(1, 3.0, false);
  m.on_complete(1, 3.0);
  EXPECT_THROW(m.on_complete(1, 4.0), std::logic_error);  // completed twice
  EXPECT_THROW(m.on_submit(1, 5.0), std::logic_error);    // submitted twice
}

TEST(Metrics, UtilizationIntegral) {
  MetricsCollector m;
  m.on_busy_gpus(4, 0.0);   // 4 busy on [0, 10)
  m.on_busy_gpus(8, 10.0);  // 8 busy on [10, 20)
  m.on_busy_gpus(0, 20.0);  // idle afterwards
  // Over [0, 20] with 8 GPUs: (4*10 + 8*10) / (8*20) = 0.75.
  EXPECT_NEAR(m.avg_utilization(8, 20.0), 0.75, 1e-12);
  // Over [0, 40]: the idle tail halves it.
  EXPECT_NEAR(m.avg_utilization(8, 40.0), 0.375, 1e-12);
}

TEST(Metrics, UtilizationCountsOpenSegment) {
  MetricsCollector m;
  m.on_busy_gpus(2, 0.0);
  // No further change: the busy level extends to the horizon.
  EXPECT_NEAR(m.avg_utilization(4, 10.0), 0.5, 1e-12);
}

TEST(Metrics, MakespanTracksLastCompletion) {
  MetricsCollector m;
  m.on_submit(1, 0.0);
  m.on_submit(2, 0.0);
  for (JobId j : {JobId{1}, JobId{2}}) {
    m.on_run_start(j, 1.0);
  }
  m.on_run_end(1, 50.0, false);
  m.on_complete(1, 50.0);
  m.on_run_end(2, 30.0, false);
  m.on_complete(2, 30.0);
  EXPECT_DOUBLE_EQ(m.makespan(), 50.0);
}

TEST(Summary, AggregatesAndFormats) {
  MetricsCollector m;
  for (int i = 0; i < 4; ++i) {
    m.on_submit(i, 0.0);
    m.on_run_start(i, 10.0 * i);
    m.on_run_end(i, 10.0 * i + 100.0, false);
    m.on_complete(i, 10.0 * i + 100.0);
  }
  m.on_busy_gpus(4, 0.0);
  const auto s = summarize("TEST", m, 4);
  EXPECT_EQ(s.jobs, 4u);
  EXPECT_DOUBLE_EQ(s.avg_exec, 100.0);
  EXPECT_DOUBLE_EQ(s.avg_queue, 15.0);  // queues 0, 10, 20, 30
  EXPECT_DOUBLE_EQ(s.avg_jct, 115.0);
  EXPECT_DOUBLE_EQ(s.makespan, 130.0);

  const auto header = format_summary_header();
  const auto row = format_summary_row(s);
  EXPECT_NE(header.find("avgJCT"), std::string::npos);
  EXPECT_NE(row.find("TEST"), std::string::npos);
}

TEST(Summary, EmptyCollectorYieldsZeros) {
  MetricsCollector m;
  const auto s = summarize("EMPTY", m, 4);
  EXPECT_EQ(s.jobs, 0u);
  EXPECT_DOUBLE_EQ(s.avg_jct, 0.0);
}

}  // namespace
}  // namespace ones::telemetry
