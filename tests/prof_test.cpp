// Host-time profiler unit tests (DESIGN.md §14): span-path aggregation,
// rollup merge determinism, the null-Scope zero-cost contract, and the
// table (with log2-histogram quantiles) / JSON / Chrome exporters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "prof/export.hpp"
#include "prof/profiler.hpp"

using namespace ones;

// --- Counting global allocator -------------------------------------------
// The off-by-default contract says a null-profiler Scope must not allocate
// (nor read the clock): one branch in, one branch out. Replace the global
// allocator with a counting malloc shim so the test below can assert it.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

/// Two "decision" invocations, one holding two "apply" children — the span
/// program used by several tests below.
void run_span_program(prof::Profiler& p) {
  {
    const prof::Scope decision(&p, "decision");
    { const prof::Scope apply(&p, "apply"); }
    { const prof::Scope apply(&p, "apply"); }
  }
  { const prof::Scope decision(&p, "decision"); }
}

TEST(Profiler, AggregatesBySpanPath) {
  prof::Profiler p;
  run_span_program(p);
  const auto stats = p.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].path, "decision");
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_EQ(stats[1].path, "decision/apply");
  EXPECT_EQ(stats[1].count, 2u);
  // The parent's total covers its children; self is the saturating remainder.
  EXPECT_GE(stats[0].total_ns, stats[1].total_ns);
  EXPECT_EQ(stats[0].self_ns, stats[0].total_ns - stats[1].total_ns);
  EXPECT_EQ(stats[1].self_ns, stats[1].total_ns);
  // Every span instance lands in exactly one log2 bucket.
  for (const prof::SpanStats& s : stats) {
    EXPECT_EQ(std::accumulate(s.buckets.begin(), s.buckets.end(), std::uint64_t{0}), s.count);
    EXPECT_LE(s.max_ns, s.total_ns);
  }
}

TEST(Profiler, SpanPathsAndCountsAreReproducible) {
  prof::Profiler a, b;
  run_span_program(a);
  run_span_program(b);
  const auto sa = a.stats();
  const auto sb = b.stats();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].path, sb[i].path);
    EXPECT_EQ(sa[i].count, sb[i].count);
    // total_ns is host noise — deliberately not compared.
  }
}

TEST(Profiler, RecursiveSpansNestUnderThemselves) {
  prof::Profiler p;
  {
    const prof::Scope outer(&p, "elastic.stage");
    const prof::Scope inner(&p, "elastic.stage");
  }
  const auto stats = p.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].path, "elastic.stage");
  EXPECT_EQ(stats[1].path, "elastic.stage/elastic.stage");
}

TEST(Profiler, PathOfReturnsJoinedChain) {
  prof::Profiler p;
  const std::size_t outer = p.enter("decision");
  const std::uint64_t outer_start = prof::Profiler::now_ns();
  const std::size_t inner = p.enter("apply");
  const std::uint64_t inner_start = prof::Profiler::now_ns();
  EXPECT_EQ(p.path_of(outer), "decision");
  EXPECT_EQ(p.path_of(inner), "decision/apply");
  p.exit(inner, inner_start);
  p.exit(outer, outer_start);
  EXPECT_THROW((void)p.path_of(999), std::logic_error);
}

TEST(Profiler, RejectsPathSeparatorInNames) {
  prof::Profiler p;
  EXPECT_THROW((void)p.enter("a/b"), std::logic_error);
  // The rejected enter must not corrupt the open-span chain.
  { const prof::Scope ok(&p, "decision"); }
  ASSERT_EQ(p.stats().size(), 1u);
  EXPECT_EQ(p.stats()[0].path, "decision");
}

TEST(ProfScope, NullProfilerAllocatesNothing) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const prof::Scope scope(nullptr, "decision");
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(ProfileRollup, MergeIsOrderIndependent) {
  prof::Profiler a, b;
  run_span_program(a);
  {
    const prof::Scope evolve(&b, "evolve.step");
    const prof::Scope select(&b, "evolve.select");
  }
  run_span_program(b);

  prof::ProfileRollup ab, ba;
  ab.add(a);
  ab.add(b);
  ba.add(b);
  ba.add(a);
  const auto sab = ab.stats();
  const auto sba = ba.stats();
  ASSERT_EQ(sab.size(), sba.size());
  for (std::size_t i = 0; i < sab.size(); ++i) {
    EXPECT_EQ(sab[i].path, sba[i].path);
    EXPECT_EQ(sab[i].count, sba[i].count);
    EXPECT_EQ(sab[i].total_ns, sba[i].total_ns);
    EXPECT_EQ(sab[i].self_ns, sba[i].self_ns);
    EXPECT_EQ(sab[i].max_ns, sba[i].max_ns);
    EXPECT_EQ(sab[i].buckets, sba[i].buckets);
  }
  // decision count pooled across both profilers: 2 + 2.
  ASSERT_FALSE(sab.empty());
  EXPECT_EQ(sab[0].path, "decision");
  EXPECT_EQ(sab[0].count, 4u);
}

TEST(ProfExport, TablePrintsQuantilesFromLog2Buckets) {
  // Five spans in [1024, 2048) ns (bucket 11) and five in [2^20, 2^21) ns
  // (bucket 21), the longest 1.5 ms.
  prof::SpanStats s;
  s.path = "decision";
  s.count = 10;
  s.total_ns = 6'000'000;
  s.self_ns = 4'000'000;
  s.max_ns = 1'500'000;
  s.buckets[11] = 5;
  s.buckets[21] = 5;
  const std::string table = prof::format_profile({s});
  const std::string row = table.substr(table.find('\n') + 1);
  std::istringstream fields(row);
  std::string prefix, path, count, total_ms, self_ms, p50_us, p90_us, max_us;
  fields >> prefix >> path >> count >> total_ms >> self_ms >> p50_us >> p90_us >> max_us;
  EXPECT_EQ(path, "decision");
  EXPECT_EQ(count, "10");
  EXPECT_EQ(total_ms, "6.000");
  EXPECT_EQ(self_ms, "4.000");
  // p50: rank 5 is the last span of bucket 11, i.e. its upper edge 2048 ns.
  EXPECT_EQ(p50_us, "2.048");
  // p90: rank 9 is 4/5 of the way through bucket 21, whose upper edge is
  // capped at max_ns: 2^20 + 0.8 * (1'500'000 - 2^20) = 1'409'715.2 ns.
  EXPECT_EQ(p90_us, "1409.715");
  EXPECT_EQ(max_us, "1500.000");
  EXPECT_NE(table.find("p90(us)"), std::string::npos);
}

TEST(ProfExport, TableColumnsStayAlignedUnderLongPaths) {
  // A 45-character path is longer than the 40-character minimum column; its
  // row and the header must still line up.
  prof::SpanStats shallow;
  shallow.path = "decision";
  shallow.count = 7;
  prof::SpanStats deep;
  deep.path = "decision/arrival/evolve.step/evolve.offspring";
  ASSERT_EQ(deep.path.size(), 45u);
  deep.count = 1234;
  const std::string table = prof::format_profile({shallow, deep});
  std::istringstream lines(table);
  std::string header;
  std::getline(lines, header);
  const std::size_t count_end = header.find("count") + std::string("count").size();
  ASSERT_NE(header.find("count"), std::string::npos);
  int rows = 0;
  for (std::string row; std::getline(lines, row); ++rows) {
    ASSERT_EQ(row.size(), header.size()) << row;
    // The count is right-aligned: its last digit ends where "count" does.
    ASSERT_GT(count_end, 0u);
    EXPECT_NE(row[count_end - 1], ' ') << row;
    EXPECT_EQ(row[count_end], ' ') << row;
  }
  EXPECT_EQ(rows, 2);
  EXPECT_NE(table.find("decision/arrival/evolve.step/evolve.offspring      1234 "),
            std::string::npos)
      << table;
}

TEST(ProfExport, JsonIsParseableAndStable) {
  prof::Profiler p;
  run_span_program(p);
  std::ostringstream out;
  prof::write_profile_json(out, p.stats());
  const JsonValue doc = parse_json(out.str());
  const JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->number, 1.0);
  const JsonValue* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 2u);
  EXPECT_EQ(spans->array[0].find("path")->string, "decision");
  EXPECT_EQ(spans->array[0].find("count")->number, 2.0);
  EXPECT_EQ(spans->array[1].find("path")->string, "decision/apply");
}

TEST(ProfExport, WritesProfileFileAtomically) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "prof_test_out";
  fs::remove_all(dir);
  prof::Profiler p;
  run_span_program(p);
  prof::write_profile_file(dir.string(), "unit", p.stats());
  std::ifstream in(dir / "unit.prof.json", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NO_THROW((void)parse_json(text.str()));
  // No stray temp files left behind.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++entries;
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(ProfExport, ChromeEventsLandOnHostTrack) {
  prof::Profiler p;
  p.enable_timeline();
  run_span_program(p);
  const auto events = prof::chrome_span_events(p);
  // 2 metadata records + 4 span instances, no truncation marker.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_NE(events[0].find("process_name"), std::string::npos);
  for (const std::string& ev : events) {
    const JsonValue doc = parse_json(ev);
    ASSERT_NE(doc.find("pid"), nullptr);
    EXPECT_EQ(doc.find("pid")->number, 1.0);
  }
  // Instances carry the full span path as the slice name.
  const JsonValue first_span = parse_json(events[2]);
  const std::string name = first_span.find("name")->string;
  EXPECT_TRUE(name == "decision" || name == "decision/apply") << name;
}

TEST(ProfExport, TimelineCapDropsAndMarksTruncation) {
  prof::Profiler p;
  p.enable_timeline(1);
  run_span_program(p);
  EXPECT_EQ(p.timeline().size(), 1u);
  EXPECT_EQ(p.timeline_dropped(), 3u);
  const auto events = prof::chrome_span_events(p);
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("truncated"), std::string::npos);
}

TEST(Profiler, TimelineOffRetainsNoInstances) {
  prof::Profiler p;
  run_span_program(p);
  EXPECT_FALSE(p.timeline_enabled());
  EXPECT_TRUE(p.timeline().empty());
  EXPECT_EQ(p.timeline_dropped(), 0u);
}

}  // namespace
