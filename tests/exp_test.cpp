// Tests for the parallel experiment orchestrator (src/exp): thread-count
// determinism, cache hit/miss behavior, JSON round-trips, cache-key
// sensitivity and grid preconditions.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "exp/cache.hpp"
#include "exp/cli.hpp"
#include "common/json.hpp"
#include "core/ones_scheduler.hpp"
#include "exp/orchestrator.hpp"
#include "sched/fifo.hpp"
#include "sched/tiresias.hpp"
#include "telemetry/registry.hpp"
#include "trace/replay.hpp"

namespace ones::exp {
namespace {

namespace fs = std::filesystem;

sched::SimulationConfig tiny_sim() {
  sched::SimulationConfig c;
  c.topology.num_nodes = 2;
  c.topology.gpus_per_node = 4;
  return c;
}

workload::TraceConfig tiny_trace(std::uint64_t seed = 11) {
  workload::TraceConfig t;
  t.num_jobs = 8;
  t.mean_interarrival_s = 20.0;
  t.seed = seed;
  return t;
}

RunSpec tiny_spec(std::uint64_t seed = 11) {
  RunSpec spec;
  spec.scheduler = "FIFO";
  spec.sim = tiny_sim();
  spec.trace = tiny_trace(seed);
  spec.factory = [] { return std::make_unique<sched::FifoScheduler>(); };
  return spec;
}

std::vector<RunSpec> tiny_grid() {
  std::vector<RunSpec> specs;
  for (std::uint64_t seed : {11ULL, 12ULL}) {
    specs.push_back(tiny_spec(seed));
    RunSpec tiresias = tiny_spec(seed);
    tiresias.scheduler = "Tiresias";
    tiresias.factory = [] { return std::make_unique<sched::TiresiasScheduler>(); };
    specs.push_back(std::move(tiresias));
  }
  return specs;
}

GridOptions quiet_options(int threads, bool use_cache = false,
                          const std::string& cache_dir = ".ones-cache") {
  GridOptions opt;
  opt.threads = threads;
  opt.use_cache = use_cache;
  opt.cache_dir = cache_dir;
  opt.progress = false;
  return opt;
}

/// Bit-identical comparison of two results (no tolerance on purpose: the
/// orchestrator promises byte-identical output for any thread count).
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.summary.scheduler, b.summary.scheduler);
  EXPECT_EQ(a.summary.jobs, b.summary.jobs);
  EXPECT_EQ(a.summary.avg_jct, b.summary.avg_jct);
  EXPECT_EQ(a.summary.avg_exec, b.summary.avg_exec);
  EXPECT_EQ(a.summary.avg_queue, b.summary.avg_queue);
  EXPECT_EQ(a.summary.p50_jct, b.summary.p50_jct);
  EXPECT_EQ(a.summary.p90_jct, b.summary.p90_jct);
  EXPECT_EQ(a.summary.max_jct, b.summary.max_jct);
  EXPECT_EQ(a.summary.makespan, b.summary.makespan);
  EXPECT_EQ(a.summary.utilization, b.summary.utilization);
  EXPECT_EQ(a.summary.cluster_joules, b.summary.cluster_joules);
  EXPECT_EQ(a.summary.overhead_joules, b.summary.overhead_joules);
  EXPECT_EQ(a.jcts, b.jcts);
  EXPECT_EQ(a.exec_times, b.exec_times);
  EXPECT_EQ(a.queue_times, b.queue_times);
  EXPECT_EQ(a.jct_by_job, b.jct_by_job);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.deployments, b.deployments);
}

class TempCacheDir {
 public:
  explicit TempCacheDir(const char* name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~TempCacheDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ExpOrchestrator, ParallelGridBitIdenticalToSerial) {
  const auto specs = tiny_grid();
  const auto serial = run_grid(specs, quiet_options(1));
  const auto parallel = run_grid(specs, quiet_options(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
  // Results land in spec order: factory-major grid layout.
  EXPECT_EQ(parallel[0].summary.scheduler, "FIFO");
  EXPECT_EQ(parallel[1].summary.scheduler, "Tiresias");
}

TEST(ExpOrchestrator, SecondRunHitsCacheAndChangedSpecMisses) {
  TempCacheDir dir("ones_exp_cache_test");
  const auto specs = tiny_grid();
  const auto cold = run_grid(specs, quiet_options(2, true, dir.path()));
  for (const auto& r : cold) EXPECT_FALSE(r.from_cache);

  const auto warm = run_grid(specs, quiet_options(2, true, dir.path()));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    expect_identical(cold[i], warm[i]);
  }

  // A changed seed (or any config change) must miss.
  auto changed = specs;
  changed[0].trace.seed += 100;
  const auto rerun = run_grid(changed, quiet_options(2, true, dir.path()));
  EXPECT_FALSE(rerun[0].from_cache);
  for (std::size_t i = 1; i < changed.size(); ++i) EXPECT_TRUE(rerun[i].from_cache);
}

TEST(ExpOrchestrator, NoCacheOptionBypassesWarmCache) {
  TempCacheDir dir("ones_exp_nocache_test");
  const std::vector<RunSpec> specs = {tiny_spec()};
  run_grid(specs, quiet_options(1, true, dir.path()));
  const auto rerun = run_grid(specs, quiet_options(1, false, dir.path()));
  EXPECT_FALSE(rerun[0].from_cache);
}

TEST(ExpOrchestrator, MalformedGridsThrow) {
  EXPECT_THROW(run_grid({}, quiet_options(1)), std::logic_error);

  const std::vector<RunSpec> specs = {tiny_spec()};
  EXPECT_THROW(run_grid(specs, quiet_options(0)), std::logic_error);
  EXPECT_THROW(run_grid(specs, quiet_options(-3)), std::logic_error);

  std::vector<RunSpec> no_factory = {tiny_spec()};
  no_factory[0].factory = nullptr;
  EXPECT_THROW(run_grid(no_factory, quiet_options(1)), std::logic_error);

  std::vector<RunSpec> no_name = {tiny_spec()};
  no_name[0].scheduler.clear();
  EXPECT_THROW(run_grid(no_name, quiet_options(1)), std::logic_error);
}

TEST(ExpOrchestrator, WorkerExceptionPropagatesToCaller) {
  std::vector<RunSpec> specs = {tiny_spec()};
  specs[0].factory = []() -> std::unique_ptr<sched::Scheduler> {
    throw std::runtime_error("factory exploded");
  };
  EXPECT_THROW(run_grid(specs, quiet_options(2)), std::runtime_error);
}

TEST(ExpOrchestrator, PoolRunsConcatenatesAndAverages) {
  RunResult a;
  a.summary.scheduler = "X";
  a.jcts = {1.0, 3.0};
  a.exec_times = {0.5, 1.5};
  a.queue_times = {0.5, 1.5};
  a.summary.makespan = 10.0;
  a.summary.utilization = 0.5;
  a.completed = 2;
  RunResult b = a;
  b.jcts = {5.0, 7.0};
  b.summary.makespan = 20.0;
  b.summary.utilization = 0.7;

  const auto pooled = pool_runs({a, b});
  EXPECT_EQ(pooled.summary.scheduler, "X");
  EXPECT_EQ(pooled.jcts, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
  EXPECT_EQ(pooled.summary.jobs, 4u);
  EXPECT_DOUBLE_EQ(pooled.summary.avg_jct, 4.0);
  EXPECT_DOUBLE_EQ(pooled.summary.p50_jct, 4.0);
  EXPECT_DOUBLE_EQ(pooled.summary.max_jct, 7.0);
  EXPECT_DOUBLE_EQ(pooled.summary.makespan, 15.0);
  EXPECT_DOUBLE_EQ(pooled.summary.utilization, 0.6);
  EXPECT_EQ(pooled.completed, 4u);

  // Single-run pooling is the identity (keeps jct_by_job for paired tests).
  a.jct_by_job[3] = 1.5;
  const auto single = pool_runs({a});
  EXPECT_EQ(single.jct_by_job, a.jct_by_job);

  EXPECT_THROW(pool_runs({}), std::logic_error);
}

TEST(ExpCache, RoundTripAndCounters) {
  TempCacheDir dir("ones_exp_cachecls_test");
  ResultCache cache(dir.path());
  const auto spec = tiny_spec();

  EXPECT_FALSE(cache.load(spec).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  const auto result = execute_run(spec);
  cache.store(spec, result);
  EXPECT_EQ(cache.stores(), 1u);

  const auto loaded = cache.load(spec);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->from_cache);
  EXPECT_EQ(cache.hits(), 1u);
  expect_identical(result, *loaded);
}

TEST(ExpCache, CorruptEntryIsAMiss) {
  TempCacheDir dir("ones_exp_corrupt_test");
  ResultCache cache(dir.path());
  const auto spec = tiny_spec();
  fs::create_directories(dir.path());
  std::ofstream(fs::path(dir.path()) / (cache_key(spec) + ".json")) << "{not json";
  EXPECT_FALSE(cache.load(spec).has_value());
}

TEST(ExpCache, DisabledCacheNeverTouchesDisk) {
  TempCacheDir dir("ones_exp_disabled_test");
  ResultCache cache(dir.path(), /*enabled=*/false);
  const auto spec = tiny_spec();
  RunResult r;
  cache.store(spec, r);
  EXPECT_FALSE(cache.load(spec).has_value());
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST(ExpRunSpec, CacheKeyIsSensitiveToEveryKnob) {
  const auto base = tiny_spec();
  const std::string key = cache_key(base);
  EXPECT_EQ(key, cache_key(tiny_spec()));  // deterministic

  auto seed = base;
  seed.trace.seed += 1;
  EXPECT_NE(cache_key(seed), key);

  auto nodes = base;
  nodes.sim.topology.num_nodes += 1;
  EXPECT_NE(cache_key(nodes), key);

  auto variant = base;
  variant.variant = "no-predictor";
  EXPECT_NE(cache_key(variant), key);

  auto knob = base;
  knob.sim.convergence.lr_linear_scaling = false;
  EXPECT_NE(cache_key(knob), key);

  auto trace = base;
  trace.trace.mean_interarrival_s *= 2.0;
  EXPECT_NE(cache_key(trace), key);

  // Fault injection (DESIGN.md §13) is simulation input (schema v4): every
  // knob, including the recovery policy, must move the key.
  auto fault = base;
  fault.sim.fault.gpu_mtbf_s = 15000.0;
  EXPECT_NE(cache_key(fault), key);
  auto fault_seed = base;
  fault_seed.sim.fault.seed += 1;
  EXPECT_NE(cache_key(fault_seed), key);
  auto ckpt = base;
  ckpt.sim.fault.checkpoint_interval_s *= 2.0;
  EXPECT_NE(cache_key(ckpt), key);

  // Keys are filesystem-safe and embed the scheduler for debuggability.
  EXPECT_EQ(key.find("fifo-"), 0u);
  EXPECT_EQ(key.find('/'), std::string::npos);
}

TEST(ExpRunSpec, CanonicalSerializationEmbedsSchemaVersion) {
  const std::string text = canonical_serialize(tiny_spec());
  EXPECT_NE(text.find("schema=" + std::to_string(kCacheSchemaVersion)),
            std::string::npos);
  EXPECT_NE(text.find("trace.seed=11"), std::string::npos);
}

TEST(ExpRunSpec, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ExpJson, ResultRoundTripsExactly) {
  RunResult r;
  r.summary.scheduler = "ONES \"quoted\"\n";
  r.summary.jobs = 3;
  r.summary.avg_jct = 123.456789012345678;
  r.summary.utilization = 1.0 / 3.0;
  r.jcts = {1.0000000000000002, 2.5, 1e-17};
  r.exec_times = {0.1};
  r.queue_times = {};
  r.jct_by_job = {{0, 1.25}, {7, 3.75}};
  r.completed = 3;
  r.events_fired = 123456789;
  r.deployments = 42;

  const auto back = result_from_json(result_to_json(r));
  expect_identical(r, back);
  EXPECT_FALSE(back.from_cache);  // from_cache is not serialized
}

TEST(ExpJson, RejectsMalformedAndWrongSchema) {
  EXPECT_THROW(result_from_json("{"), std::runtime_error);
  EXPECT_THROW(result_from_json("[]"), std::runtime_error);
  EXPECT_THROW(result_from_json("{\"schema\":999}"), std::runtime_error);
  RunResult r;
  const auto json = result_to_json(r);
  EXPECT_THROW(result_from_json(json + "trailing"), std::runtime_error);
}

TEST(ExpCli, DefaultThreadsIsPositive) { EXPECT_GE(default_threads(), 1); }

TEST(ExpCliDeathTest, UnwritableOutputDirFailsFast) {
  // validate_output_dir guards every output-dir flag (--trace-dir,
  // --metrics-dir, --prof-dir): a path that cannot be a writable directory
  // must abort the bench before any run executes.
  EXPECT_EXIT(validate_output_dir("/proc/not-a-writable-dir", "--prof-dir", "test"),
              testing::ExitedWithCode(2), "--prof-dir");
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ExpTracing, TraceBytesIdenticalForAnyThreadCount) {
  const auto specs = tiny_grid();
  TempCacheDir dir_serial("ones_exp_trace_serial");
  TempCacheDir dir_parallel("ones_exp_trace_parallel");

  auto serial_opt = quiet_options(1);
  serial_opt.trace_dir = dir_serial.path();
  auto parallel_opt = quiet_options(4);
  parallel_opt.trace_dir = dir_parallel.path();
  run_grid(specs, serial_opt);
  run_grid(specs, parallel_opt);

  const trace::TraceReplayer replayer;
  for (const auto& spec : specs) {
    const std::string stem = cache_key(spec);
    const std::string serial_bytes =
        read_file(fs::path(dir_serial.path()) / (stem + ".jsonl"));
    const std::string parallel_bytes =
        read_file(fs::path(dir_parallel.path()) / (stem + ".jsonl"));
    ASSERT_FALSE(serial_bytes.empty()) << stem;
    EXPECT_EQ(serial_bytes, parallel_bytes) << stem;
    EXPECT_EQ(read_file(fs::path(dir_serial.path()) / (stem + ".trace.json")),
              read_file(fs::path(dir_parallel.path()) / (stem + ".trace.json")))
        << stem;
    // Every emitted trace is structurally legal.
    const auto report = replayer.check_jsonl(serial_bytes);
    EXPECT_TRUE(report.ok()) << stem << ":\n" << report.to_string();
  }
  // No stray files: one .jsonl + one .trace.json per spec, no leftover tmps.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_serial.path())) {
    ++files;
    EXPECT_TRUE(e.path().extension() == ".jsonl" ||
                e.path().extension() == ".json")
        << e.path();
  }
  EXPECT_EQ(files, 2 * specs.size());
}

TEST(ExpTracing, CacheServedRunsEmitNoTrace) {
  TempCacheDir cache_dir("ones_exp_trace_cache");
  TempCacheDir trace_dir("ones_exp_trace_cached_out");
  const std::vector<RunSpec> specs = {tiny_spec()};

  // Cold pass populates the cache (no tracing requested).
  run_grid(specs, quiet_options(1, true, cache_dir.path()));

  // Warm pass asks for traces, but every run is cache-served: a trace of a
  // run that never re-executed would be a lie, so nothing may be written.
  auto opt = quiet_options(1, true, cache_dir.path());
  opt.trace_dir = trace_dir.path();
  const auto warm = run_grid(specs, opt);
  ASSERT_TRUE(warm[0].from_cache);
  EXPECT_TRUE(!fs::exists(trace_dir.path()) || fs::is_empty(trace_dir.path()));

  // Bypassing the cache re-executes and traces again.
  auto no_cache = quiet_options(1, false, cache_dir.path());
  no_cache.trace_dir = trace_dir.path();
  run_grid(specs, no_cache);
  EXPECT_TRUE(
      fs::exists(fs::path(trace_dir.path()) / (cache_key(specs[0]) + ".jsonl")));
}

TEST(ExpTracing, TracingDoesNotChangeResults) {
  TempCacheDir trace_dir("ones_exp_trace_results");
  auto specs = tiny_grid();
  // ONES resizes jobs elastically, which is where a trace sink adds engine
  // events of its own (elastic_resumed); events_fired must not count them.
  RunSpec ones = tiny_spec();
  ones.scheduler = "ONES";
  ones.factory = [] { return std::make_unique<core::OnesScheduler>(); };
  specs.push_back(std::move(ones));
  const auto plain = run_grid(specs, quiet_options(2));
  auto opt = quiet_options(2);
  opt.trace_dir = trace_dir.path();
  const auto traced = run_grid(specs, opt);
  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_identical(plain[i], traced[i]);
  }
}

// The metrics registry follows the tracing contract (DESIGN.md §9): it may
// observe a run, never steer it. The next three tests mirror the ExpTracing
// suite above, instrument for instrument.
TEST(ExpMetrics, MetricsDoNotChangeResults) {
  TempCacheDir metrics_dir("ones_exp_metrics_results");
  const auto specs = tiny_grid();
  const auto plain = run_grid(specs, quiet_options(2));
  auto opt = quiet_options(2);
  opt.metrics_dir = metrics_dir.path();
  const auto instrumented = run_grid(specs, opt);
  ASSERT_EQ(plain.size(), instrumented.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_identical(plain[i], instrumented[i]);
  }
  // Each executed run exported its three files.
  for (const auto& spec : specs) {
    const fs::path base = fs::path(metrics_dir.path()) / cache_key(spec);
    EXPECT_TRUE(fs::exists(base.string() + ".timeline.csv")) << base;
    EXPECT_TRUE(fs::exists(base.string() + ".prom")) << base;
    EXPECT_TRUE(fs::exists(base.string() + ".metrics.json")) << base;
  }
}

TEST(ExpMetrics, MetricsBytesIdenticalForAnyThreadCount) {
  const auto specs = tiny_grid();
  TempCacheDir dir_serial("ones_exp_metrics_serial");
  TempCacheDir dir_parallel("ones_exp_metrics_parallel");

  auto serial_opt = quiet_options(1);
  serial_opt.metrics_dir = dir_serial.path();
  auto parallel_opt = quiet_options(4);
  parallel_opt.metrics_dir = dir_parallel.path();
  run_grid(specs, serial_opt);
  run_grid(specs, parallel_opt);

  for (const auto& spec : specs) {
    const std::string stem = cache_key(spec);
    for (const char* ext : {".timeline.csv", ".prom", ".metrics.json"}) {
      const std::string serial_bytes =
          read_file(fs::path(dir_serial.path()) / (stem + ext));
      ASSERT_FALSE(serial_bytes.empty()) << stem << ext;
      EXPECT_EQ(serial_bytes, read_file(fs::path(dir_parallel.path()) / (stem + ext)))
          << stem << ext;
    }
  }
  // No stray files: three exports per spec, no leftover tmps.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_serial.path())) {
    ++files;
    EXPECT_TRUE(e.path().extension() == ".csv" || e.path().extension() == ".prom" ||
                e.path().extension() == ".json")
        << e.path();
  }
  EXPECT_EQ(files, 3 * specs.size());
}

TEST(ExpMetrics, CacheServedRunsEmitNoMetrics) {
  TempCacheDir cache_dir("ones_exp_metrics_cache");
  TempCacheDir metrics_dir("ones_exp_metrics_cached_out");
  const std::vector<RunSpec> specs = {tiny_spec()};

  run_grid(specs, quiet_options(1, true, cache_dir.path()));

  // Warm pass: every run is cache-served, so no registry ever exists and no
  // file may appear (metrics of a run that never re-executed would be a lie).
  auto opt = quiet_options(1, true, cache_dir.path());
  opt.metrics_dir = metrics_dir.path();
  const auto warm = run_grid(specs, opt);
  ASSERT_TRUE(warm[0].from_cache);
  EXPECT_TRUE(!fs::exists(metrics_dir.path()) || fs::is_empty(metrics_dir.path()));

  auto no_cache = quiet_options(1, false, cache_dir.path());
  no_cache.metrics_dir = metrics_dir.path();
  run_grid(specs, no_cache);
  EXPECT_TRUE(fs::exists(fs::path(metrics_dir.path()) /
                         (cache_key(specs[0]) + ".metrics.json")));
}

// The host-time profiler is the third instrument under the same contract
// (DESIGN.md §14): attaching it may observe a run, never steer it.
TEST(ExpProfiling, ProfilingDoesNotChangeResults) {
  TempCacheDir prof_dir("ones_exp_prof_results");
  const auto specs = tiny_grid();
  const auto plain = run_grid(specs, quiet_options(2));
  auto opt = quiet_options(2);
  opt.prof_dir = prof_dir.path();
  const auto profiled = run_grid(specs, opt);
  ASSERT_EQ(plain.size(), profiled.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_identical(plain[i], profiled[i]);
  }
  // Each executed run exported its span profile, and it parses.
  for (const auto& spec : specs) {
    const fs::path path =
        fs::path(prof_dir.path()) / (cache_key(spec) + ".prof.json");
    ASSERT_TRUE(fs::exists(path)) << path;
    const JsonValue doc = parse_json(read_file(path));
    const JsonValue* spans = doc.find("spans");
    ASSERT_NE(spans, nullptr) << path;
    EXPECT_FALSE(spans->array.empty()) << path;
  }
}

TEST(ExpProfiling, SpanPathsAndCountsIdenticalForAnyThreadCount) {
  const auto specs = tiny_grid();
  prof::ProfileRollup serial_rollup, parallel_rollup;
  auto serial_opt = quiet_options(1);
  serial_opt.prof = &serial_rollup;
  auto parallel_opt = quiet_options(4);
  parallel_opt.prof = &parallel_rollup;
  run_grid(specs, serial_opt);
  run_grid(specs, parallel_opt);

  // Path-keyed aggregation makes the merge order-independent: the span set
  // and every count are bit-identical across thread counts; only the
  // nanosecond magnitudes are host noise.
  const auto serial = serial_rollup.stats();
  const auto parallel = parallel_rollup.stats();
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].path, parallel[i].path);
    EXPECT_EQ(serial[i].count, parallel[i].count) << serial[i].path;
  }
}

TEST(ExpProfiling, CacheServedRunsEmitNoProfiles) {
  TempCacheDir cache_dir("ones_exp_prof_cache");
  TempCacheDir prof_dir("ones_exp_prof_cached_out");
  const std::vector<RunSpec> specs = {tiny_spec()};

  run_grid(specs, quiet_options(1, true, cache_dir.path()));

  // Warm pass: every run is cache-served; a profile of a run that never
  // re-executed would be a lie, so nothing may appear.
  auto opt = quiet_options(1, true, cache_dir.path());
  opt.prof_dir = prof_dir.path();
  const auto warm = run_grid(specs, opt);
  ASSERT_TRUE(warm[0].from_cache);
  EXPECT_TRUE(!fs::exists(prof_dir.path()) || fs::is_empty(prof_dir.path()));

  auto no_cache = quiet_options(1, false, cache_dir.path());
  no_cache.prof_dir = prof_dir.path();
  run_grid(specs, no_cache);
  EXPECT_TRUE(fs::exists(fs::path(prof_dir.path()) /
                         (cache_key(specs[0]) + ".prof.json")));
}

TEST(ExpMetrics, GridPublishesCacheStatsIntoRegistry) {
  TempCacheDir cache_dir("ones_exp_metrics_stats");
  const auto specs = tiny_grid();

  telemetry::MetricsRegistry cold_registry;
  auto cold_opt = quiet_options(2, true, cache_dir.path());
  cold_opt.registry = &cold_registry;
  run_grid(specs, cold_opt);
  EXPECT_DOUBLE_EQ(cold_registry.counter_value("exp_cache_hits_total"), 0.0);
  EXPECT_DOUBLE_EQ(cold_registry.counter_value("exp_cache_misses_total"),
                   static_cast<double>(specs.size()));
  EXPECT_DOUBLE_EQ(cold_registry.counter_value("exp_cache_stores_total"),
                   static_cast<double>(specs.size()));
  EXPECT_DOUBLE_EQ(cold_registry.counter_value("exp_runs_executed_total"),
                   static_cast<double>(specs.size()));

  telemetry::MetricsRegistry warm_registry;
  auto warm_opt = quiet_options(2, true, cache_dir.path());
  warm_opt.registry = &warm_registry;
  run_grid(specs, warm_opt);
  EXPECT_DOUBLE_EQ(warm_registry.counter_value("exp_cache_hits_total"),
                   static_cast<double>(specs.size()));
  EXPECT_DOUBLE_EQ(warm_registry.counter_value("exp_cache_misses_total"), 0.0);
  EXPECT_DOUBLE_EQ(warm_registry.counter_value("exp_runs_executed_total"), 0.0);
}

TEST(ExpCache, DemotedCorruptEntryIsCounted) {
  TempCacheDir dir("ones_exp_demote_test");
  ResultCache cache(dir.path());
  const auto spec = tiny_spec();
  fs::create_directories(dir.path());
  std::ofstream(fs::path(dir.path()) / (cache_key(spec) + ".json")) << "{not json";
  EXPECT_FALSE(cache.load(spec).has_value());
  EXPECT_EQ(cache.demotions(), 1u);  // corrupt entry demoted to a miss...
  EXPECT_EQ(cache.misses(), 1u);     // ...and counted as one
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ExpOrchestrator, VariantAliasingIsRejected) {
  // Two specs, identical declarative config (same cache key), but factories
  // of different types — the classic "ablation config not reflected in
  // RunSpec::variant" bug. The grid must refuse to run.
  std::vector<RunSpec> specs = {tiny_spec(), tiny_spec()};
  specs[1].factory = [] {
    auto s = std::make_unique<sched::FifoScheduler>();
    return std::unique_ptr<sched::Scheduler>(std::move(s));
  };
  EXPECT_THROW(run_grid(specs, quiet_options(1)), std::logic_error);

  // Setting `variant` on one of them separates the cache keys and unblocks.
  specs[1].variant = "alt";
  const auto results = run_grid(specs, quiet_options(1));
  EXPECT_EQ(results.size(), 2u);
  expect_identical(results[0], results[1]);  // same underlying simulation

  // Exact duplicates (same factory type) are benign and allowed.
  const std::vector<RunSpec> dupes = {tiny_spec(), tiny_spec()};
  const auto dupe_results = run_grid(dupes, quiet_options(2));
  expect_identical(dupe_results[0], dupe_results[1]);
}

}  // namespace
}  // namespace ones::exp
