// Unit tests for the sim-time metrics registry (DESIGN.md §9): instrument
// semantics (counter monotonicity, histogram bucket boundaries and
// quantiles), registry name/kind aliasing rules, TimelineSampler
// change-point + tick determinism, and the three exporters' output formats.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/json.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/timeline.hpp"

namespace ones::telemetry {
namespace {

TEST(Counter, AccumulatesAndRejectsNegativeDeltas) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.add(-1.0), std::logic_error);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Histogram, RejectsMalformedBounds) {
  EXPECT_THROW(Histogram({}), std::logic_error);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
}

TEST(Histogram, BucketBoundariesUseLeSemantics) {
  // Prometheus `le` semantics: an observation equal to a bound lands in that
  // bound's bucket, strictly greater spills into the next.
  Histogram h({1.0, 10.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // == bound -> first bucket
  h.observe(1.01);  // > 1.0 -> second bucket
  h.observe(10.0);  // == bound -> second bucket
  h.observe(11.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 10.0 + 11.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 11.0);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // first bucket
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // second bucket
  // Rank 10 of 20 sits at the top of the first bucket [min=5, 10].
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  // Rank 15 is 5/10 into the second bucket [10, 20].
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_THROW(h.quantile(-0.1), std::logic_error);
  EXPECT_THROW(h.quantile(1.1), std::logic_error);
}

TEST(Histogram, QuantileHandlesEmptyAndOverflow) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(100.0);                        // everything in the overflow bucket
  // Overflow bucket's upper edge is the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(MetricsRegistry, ReturnsSameInstrumentForSameName) {
  MetricsRegistry r;
  r.counter("a_total").add(1.0);
  r.counter("a_total").add(2.0);
  EXPECT_DOUBLE_EQ(r.counter_value("a_total"), 3.0);
  r.gauge("g").set(7.0);
  EXPECT_DOUBLE_EQ(r.gauge_value("g"), 7.0);
  Histogram& h = r.histogram("h_seconds", {1.0, 2.0});
  EXPECT_EQ(&h, &r.histogram("h_seconds", {1.0, 2.0}));
}

TEST(MetricsRegistry, RejectsNameAliasing) {
  MetricsRegistry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::logic_error);                   // kind mismatch
  EXPECT_THROW(r.histogram("x", {1.0}), std::logic_error);        // kind mismatch
  r.histogram("h", {1.0, 2.0});
  EXPECT_THROW(r.histogram("h", {1.0, 3.0}), std::logic_error);  // bounds mismatch
}

TEST(MetricsRegistry, LookupWithoutCreation) {
  MetricsRegistry r;
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  EXPECT_DOUBLE_EQ(r.counter_value("missing"), 0.0);
  EXPECT_DOUBLE_EQ(r.gauge_value("missing"), 0.0);
  r.counter("c");
  EXPECT_NE(r.find_counter("c"), nullptr);
  EXPECT_EQ(r.find_gauge("c"), nullptr);  // wrong kind -> null, not a throw
}

TEST(MetricsRegistry, EntriesAreNameSorted) {
  MetricsRegistry r;
  r.counter("zeta");
  r.gauge("alpha");
  r.counter("mid");
  std::vector<std::string> names;
  for (const auto& [name, entry] : r.entries()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(TimelineSampler, RecordsOnlyChangePoints) {
  TimelineSampler tl;
  const auto q = tl.series("queue_depth");
  tl.record(q, 0.0, 3.0);
  tl.record(q, 1.0, 3.0);  // unchanged -> dropped
  tl.record(q, 2.0, 5.0);
  tl.record(q, 2.0, 5.0);  // same time, same value -> dropped
  ASSERT_EQ(tl.points().size(), 2u);
  EXPECT_DOUBLE_EQ(tl.points()[0].t, 0.0);
  EXPECT_DOUBLE_EQ(tl.points()[0].value, 3.0);
  EXPECT_DOUBLE_EQ(tl.points()[1].t, 2.0);
  EXPECT_DOUBLE_EQ(tl.points()[1].value, 5.0);
  EXPECT_EQ(tl.name(tl.points()[0].series), "queue_depth");
}

TEST(TimelineSampler, RejectsTimeRegression) {
  TimelineSampler tl;
  const auto s = tl.series("s");
  tl.record(s, 5.0, 1.0);
  EXPECT_THROW(tl.record(s, 4.9, 2.0), std::logic_error);
}

TEST(TimelineSampler, IdenticalInputsProduceIdenticalPoints) {
  // Determinism: the sampler is a pure function of its call sequence.
  const auto drive = [](TimelineSampler& tl) {
    const auto a = tl.series("a");
    const auto b = tl.series("b");
    tl.record(a, 0.0, 1.0);
    tl.record(b, 3.0, 4.0);
    tl.record(a, 16.0, 2.0);
    tl.record(b, 22.0, 4.0);  // unchanged -> dropped
  };
  TimelineSampler x, y;
  drive(x);
  drive(y);
  std::ostringstream xs, ys;
  write_timeline_csv(xs, x);
  write_timeline_csv(ys, y);
  EXPECT_EQ(xs.str(), ys.str());
}

TEST(Exporters, TimelineCsvHeaderAndRows) {
  TimelineSampler tl;
  const auto s = tl.series("busy_gpus");
  tl.record(s, 0.0, 4.0);
  tl.record(s, 1.5, 8.0);
  std::ostringstream os;
  write_timeline_csv(os, tl);
  EXPECT_EQ(os.str(), "t,series,value\n0,busy_gpus,4\n1.5,busy_gpus,8\n");
}

TEST(Exporters, PrometheusFormatsAllKinds) {
  MetricsRegistry r;
  r.counter("b_total").add(3.0);
  r.gauge("a_gauge").set(1.5);
  Histogram& h = r.histogram("c_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  std::ostringstream os;
  write_prometheus(os, r);
  EXPECT_EQ(os.str(),
            "# TYPE a_gauge gauge\n"
            "a_gauge 1.5\n"
            "# TYPE b_total counter\n"
            "b_total 3\n"
            "# TYPE c_seconds histogram\n"
            "c_seconds_bucket{le=\"1\"} 1\n"
            "c_seconds_bucket{le=\"2\"} 2\n"
            "c_seconds_bucket{le=\"+Inf\"} 3\n"
            "c_seconds_sum 11\n"
            "c_seconds_count 3\n");
}

TEST(Exporters, JsonSummaryParses) {
  MetricsRegistry r;
  r.counter("jobs_total").add(2.0);
  r.gauge("depth").set(4.0);
  r.histogram("lat_seconds", {1.0}).observe(0.5);
  std::ostringstream os;
  write_json_summary(os, r);
  const JsonValue doc = parse_json(os.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.object.size(), 3u);
  const JsonValue* jobs = doc.find("jobs_total");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->find("type")->string, "counter");
  EXPECT_DOUBLE_EQ(jobs->find("value")->number, 2.0);
  const JsonValue* lat = doc.find("lat_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->find("count")->number, 1.0);
  ASSERT_NE(lat->find("buckets"), nullptr);
  EXPECT_EQ(lat->find("buckets")->array.size(), 2u);
  ASSERT_NE(lat->find("p50"), nullptr);
}

TEST(Exporters, EmptyRegistryJsonIsAnEmptyObject) {
  MetricsRegistry r;
  std::ostringstream os;
  write_json_summary(os, r);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_TRUE(doc.object.empty());
}

}  // namespace
}  // namespace ones::telemetry
