// Unit tests for telemetry exporters (CSV / JSON) and the cluster
// fragmentation / locality analytics.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "cluster/fragmentation.hpp"
#include "common/json.hpp"
#include "telemetry/report.hpp"

namespace ones {
namespace {

telemetry::MetricsCollector sample_metrics() {
  telemetry::MetricsCollector m;
  m.on_submit(0, 0.0);
  m.on_run_start(0, 5.0);
  m.on_run_end(0, 105.0, false);
  m.on_complete(0, 105.0);
  m.on_submit(1, 10.0);
  m.on_run_start(1, 20.0);
  m.on_run_end(1, 50.0, false);
  m.on_abort(1, 50.0);  // killed
  m.on_submit(2, 15.0);  // never finished
  return m;
}

TEST(ReportCsv, JobsCsvHasHeaderAndFinishedRows) {
  std::ostringstream os;
  telemetry::write_jobs_csv(os, sample_metrics());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("job_id,arrival_s"), std::string::npos);
  // Job 0 (normal) and job 1 (aborted) appear; job 2 (unfinished) does not.
  EXPECT_NE(csv.find("0,0,105,105,100,5,0,0"), std::string::npos);
  EXPECT_NE(csv.find("1,10,50,40,30,10,0,1"), std::string::npos);
  EXPECT_EQ(csv.find("\n2,"), std::string::npos);
  // Exactly header + 2 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(ReportCsv, AbortedJobsMeasureUpToTheAbort) {
  // An aborted job gets a CSV row (aborted=1) with jct/exec/queue measured
  // through the abort time — but the Summary aggregates must exclude it
  // (report.hpp documents this split; the CSV is where abort numbers live).
  telemetry::MetricsCollector m;
  m.on_submit(5, 0.0);
  m.on_run_start(5, 2.0);
  m.on_run_end(5, 8.0, true);  // preempted once
  m.on_run_start(5, 10.0);
  m.on_run_end(5, 14.0, false);
  m.on_abort(5, 14.0);  // killed right after its second run interval

  std::ostringstream os;
  telemetry::write_jobs_csv(os, m);
  // arrival 0, completion 14, jct 14, exec 6+4=10, queue 4, 1 preemption.
  EXPECT_NE(os.str().find("5,0,14,14,10,4,1,1"), std::string::npos);
  EXPECT_TRUE(m.jcts().empty());  // aborted jobs never enter the aggregates
  EXPECT_EQ(m.aborted(), 1u);
}

TEST(ReportCsv, UnfinishedJobsEmitNoRows) {
  // Jobs cut off by the simulation horizon — never started, or started but
  // never terminal — must not appear: their partial times would be horizon
  // artifacts, not outcomes (see the write_jobs_csv contract in report.hpp).
  telemetry::MetricsCollector m;
  m.on_submit(1, 0.0);   // never scheduled at all
  m.on_submit(2, 5.0);   // ran for a while, preempted, then the run ended
  m.on_run_start(2, 6.0);
  m.on_run_end(2, 9.0, true);

  std::ostringstream os;
  telemetry::write_jobs_csv(os, m);
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);  // header only
  EXPECT_EQ(m.submitted(), 2u);  // submitted-vs-rows gap flags the truncation
}

TEST(ReportCsv, EcdfCsvIsSortedAndEndsAtOne) {
  std::ostringstream os;
  telemetry::write_ecdf_csv(os, {3.0, 1.0, 2.0}, "jct_s");
  const std::string csv = os.str();
  EXPECT_NE(csv.find("jct_s,cum_fraction"), std::string::npos);
  EXPECT_NE(csv.find("1,0.333333"), std::string::npos);
  EXPECT_NE(csv.find("3,1\n"), std::string::npos);
}

TEST(ReportJson, SummaryRoundTripKeys) {
  telemetry::Summary s;
  s.scheduler = "ONES";
  s.jobs = 3;
  s.avg_jct = 123.5;
  const auto json = telemetry::summary_to_json(s);
  EXPECT_NE(json.find("\"scheduler\":\"ONES\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"avg_jct_s\":123.5"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ReportJson, SummaryDoublesAndNameRoundTripExactly) {
  telemetry::Summary s;
  s.scheduler = "ONES \"λ=0.25\"\\v2";
  s.jobs = 7;
  s.avg_jct = 904.85281993075091;
  s.avg_exec = 1.0 / 3.0;
  s.avg_queue = 123456.78901234567;
  s.p50_jct = 0.1;
  s.p90_jct = 2.0 / 7.0;
  s.max_jct = 1e300;
  s.makespan = 98765.432101234;
  s.utilization = 0.6180339887498949;
  s.cluster_joules = 4.2e9 / 3.0;
  s.overhead_joules = 5e-324;
  const JsonValue doc = parse_json(telemetry::summary_to_json(s));
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.find("scheduler")->string, s.scheduler);
  EXPECT_EQ(doc.find("jobs")->number, 7.0);
  // Bit-equal, not near: every JCT in summary.json is the run's own value.
  const std::pair<const char*, double> fields[] = {
      {"avg_jct_s", s.avg_jct},         {"avg_exec_s", s.avg_exec},
      {"avg_queue_s", s.avg_queue},     {"p50_jct_s", s.p50_jct},
      {"p90_jct_s", s.p90_jct},         {"max_jct_s", s.max_jct},
      {"makespan_s", s.makespan},       {"utilization", s.utilization},
      {"cluster_joules", s.cluster_joules}, {"overhead_joules", s.overhead_joules}};
  for (const auto& [key, value] : fields) {
    const JsonValue* v = doc.find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->number, value) << key;
  }
}

TEST(ReportJson, SummariesArray) {
  telemetry::Summary a, b;
  a.scheduler = "A";
  b.scheduler = "B";
  const auto json = telemetry::summaries_to_json({a, b});
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"A\""), std::string::npos);
  EXPECT_NE(json.find("\"B\""), std::string::npos);
  EXPECT_NE(json.find("},{"), std::string::npos);
}

cluster::Topology topo4x4() {
  cluster::TopologyConfig c;
  c.num_nodes = 4;
  c.gpus_per_node = 4;
  return cluster::Topology(c);
}

TEST(Fragmentation, EmptyClusterIsOneBigBlock) {
  const auto topo = topo4x4();
  cluster::Assignment a(topo.total_gpus());
  const auto f = cluster::fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 16);
  EXPECT_EQ(f.largest_colocated_block, 4);
  EXPECT_EQ(f.nodes_with_idle, 4);
  EXPECT_DOUBLE_EQ(f.scatter_index, 0.0);  // cannot be less scattered
}

TEST(Fragmentation, ScatteredHolesScoreHigh) {
  const auto topo = topo4x4();
  cluster::Assignment a(topo.total_gpus());
  // Fill everything except one GPU per node: 4 idle GPUs on 4 nodes (the
  // worst case for a 4-GPU gang).
  for (int g = 0; g < 16; ++g) {
    if (g % 4 != 0) a.place(g, 1, 8);
  }
  const auto f = cluster::fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 4);
  EXPECT_EQ(f.largest_colocated_block, 1);
  EXPECT_EQ(f.nodes_with_idle, 4);
  EXPECT_DOUBLE_EQ(f.scatter_index, 1.0);
}

TEST(Fragmentation, PackedHolesScoreLow) {
  const auto topo = topo4x4();
  cluster::Assignment a(topo.total_gpus());
  // Fill nodes 1..3 entirely: the 4 idle GPUs share node 0.
  for (int g = 4; g < 16; ++g) a.place(g, 1, 8);
  const auto f = cluster::fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 4);
  EXPECT_EQ(f.largest_colocated_block, 4);
  EXPECT_DOUBLE_EQ(f.scatter_index, 0.0);
}

TEST(Fragmentation, FullClusterHasNoIdle) {
  const auto topo = topo4x4();
  cluster::Assignment a(topo.total_gpus());
  for (int g = 0; g < 16; ++g) a.place(g, 1, 8);
  const auto f = cluster::fragmentation_stats(a, topo);
  EXPECT_EQ(f.idle_gpus, 0);
  EXPECT_EQ(f.largest_colocated_block, 0);
  EXPECT_DOUBLE_EQ(f.scatter_index, 0.0);
}

TEST(Locality, CountsColocationAndSpan) {
  const auto topo = topo4x4();
  cluster::Assignment a(topo.total_gpus());
  a.place(0, 1, 8);  // job 1: colocated pair on node 0
  a.place(1, 1, 8);
  a.place(4, 2, 8);  // job 2: spans nodes 1 and 2
  a.place(8, 2, 8);
  a.place(12, 3, 8);  // job 3: single GPU (not counted)
  const auto loc = cluster::locality_stats(a, topo);
  EXPECT_EQ(loc.jobs, 2);
  EXPECT_EQ(loc.colocated_jobs, 1);
  EXPECT_DOUBLE_EQ(loc.avg_nodes_spanned, 1.5);
}

TEST(Locality, EmptyAssignment) {
  const auto topo = topo4x4();
  cluster::Assignment a(topo.total_gpus());
  const auto loc = cluster::locality_stats(a, topo);
  EXPECT_EQ(loc.jobs, 0);
  EXPECT_DOUBLE_EQ(loc.avg_nodes_spanned, 0.0);
}

}  // namespace
}  // namespace ones
