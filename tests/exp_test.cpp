// Tests for the parallel experiment orchestrator (src/exp): thread-count
// determinism, cache hit/miss behavior, JSON round-trips, cache-key
// sensitivity and grid preconditions.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "exp/cache.hpp"
#include "exp/cli.hpp"
#include "common/json.hpp"
#include "core/annealing.hpp"
#include "core/ones_scheduler.hpp"
#include "exp/orchestrator.hpp"
#include "sched/fifo.hpp"
#include "sched/tiresias.hpp"
#include "trace/replay.hpp"

#include "bench/harness.hpp"

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
  explicit TempCacheDir(const std::string& name)
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

/// Moves one serialized field to a value it cannot already hold.
template <class T>
void bump(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += "x";
  } else if constexpr (std::is_floating_point_v<T>) {
    v = v * 2.0 + 1.0;
  } else {
    v += 1;
  }
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(ExpRunSpec, CacheKeyIsSensitiveToEveryKnob) {
  struct Knob {
    const char* key;
    void (*mutate)(RunSpec&);
  };
  const Knob knobs[] = {
      {"scheduler", [](RunSpec& s) { bump(s.scheduler); }},
      {"variant", [](RunSpec& s) { bump(s.variant); }},
      {"topology.num_nodes", [](RunSpec& s) { bump(s.sim.topology.num_nodes); }},
      {"topology.gpus_per_node", [](RunSpec& s) { bump(s.sim.topology.gpus_per_node); }},
      {"topology.intra_node_bw_Bps", [](RunSpec& s) { bump(s.sim.topology.intra_node_bw_Bps); }},
      {"topology.inter_node_bw_Bps", [](RunSpec& s) { bump(s.sim.topology.inter_node_bw_Bps); }},
      {"topology.intra_node_latency_s",
       [](RunSpec& s) { bump(s.sim.topology.intra_node_latency_s); }},
      {"topology.inter_node_latency_s",
       [](RunSpec& s) { bump(s.sim.topology.inter_node_latency_s); }},
      {"convergence.patience_epochs", [](RunSpec& s) { bump(s.sim.convergence.patience_epochs); }},
      {"convergence.spike_per_extra_doubling",
       [](RunSpec& s) { bump(s.sim.convergence.spike_per_extra_doubling); }},
      {"convergence.disturbance_decay",
       [](RunSpec& s) { bump(s.sim.convergence.disturbance_decay); }},
      {"convergence.progress_slowdown",
       [](RunSpec& s) { bump(s.sim.convergence.progress_slowdown); }},
      {"convergence.disturbance_accuracy_drop",
       [](RunSpec& s) { bump(s.sim.convergence.disturbance_accuracy_drop); }},
      {"convergence.accuracy_noise", [](RunSpec& s) { bump(s.sim.convergence.accuracy_noise); }},
      {"convergence.lr_linear_scaling",
       [](RunSpec& s) { bump(s.sim.convergence.lr_linear_scaling); }},
      {"costs.pause_step_s", [](RunSpec& s) { bump(s.sim.costs.pause_step_s); }},
      {"costs.resize_modules_s", [](RunSpec& s) { bump(s.sim.costs.resize_modules_s); }},
      {"costs.resize_per_byte_s", [](RunSpec& s) { bump(s.sim.costs.resize_per_byte_s); }},
      {"costs.reconnect_base_s", [](RunSpec& s) { bump(s.sim.costs.reconnect_base_s); }},
      {"costs.reconnect_per_worker_s",
       [](RunSpec& s) { bump(s.sim.costs.reconnect_per_worker_s); }},
      {"costs.hdfs_bw_Bps", [](RunSpec& s) { bump(s.sim.costs.hdfs_bw_Bps); }},
      {"costs.scheduler_delay_s", [](RunSpec& s) { bump(s.sim.costs.scheduler_delay_s); }},
      {"costs.framework_init_s", [](RunSpec& s) { bump(s.sim.costs.framework_init_s); }},
      {"costs.data_pipeline_warmup_s",
       [](RunSpec& s) { bump(s.sim.costs.data_pipeline_warmup_s); }},
      {"costs.model_load_s", [](RunSpec& s) { bump(s.sim.costs.model_load_s); }},
      {"oracle.noise_sigma", [](RunSpec& s) { bump(s.sim.oracle.noise_sigma); }},
      {"oracle.noise_seed", [](RunSpec& s) { bump(s.sim.oracle.noise_seed); }},
      {"power.gpu_idle_w", [](RunSpec& s) { bump(s.sim.power.gpu_idle_w); }},
      {"power.gpu_busy_w", [](RunSpec& s) { bump(s.sim.power.gpu_busy_w); }},
      {"power.node_base_w", [](RunSpec& s) { bump(s.sim.power.node_base_w); }},
      {"power.comm_power_fraction", [](RunSpec& s) { bump(s.sim.power.comm_power_fraction); }},
      {"fault.seed", [](RunSpec& s) { bump(s.sim.fault.seed); }},
      {"fault.gpu_mtbf_s", [](RunSpec& s) { bump(s.sim.fault.gpu_mtbf_s); }},
      {"fault.gpu_repair_s", [](RunSpec& s) { bump(s.sim.fault.gpu_repair_s); }},
      {"fault.node_mtbf_s", [](RunSpec& s) { bump(s.sim.fault.node_mtbf_s); }},
      {"fault.node_repair_s", [](RunSpec& s) { bump(s.sim.fault.node_repair_s); }},
      {"fault.spot_fraction", [](RunSpec& s) { bump(s.sim.fault.spot_fraction); }},
      {"fault.reclaim_mtbf_s", [](RunSpec& s) { bump(s.sim.fault.reclaim_mtbf_s); }},
      {"fault.reclaim_return_s", [](RunSpec& s) { bump(s.sim.fault.reclaim_return_s); }},
      {"fault.checkpoint_interval_s", [](RunSpec& s) { bump(s.sim.fault.checkpoint_interval_s); }},
      {"fault.retry_backoff_s", [](RunSpec& s) { bump(s.sim.fault.retry_backoff_s); }},
      {"fault.max_restarts", [](RunSpec& s) { bump(s.sim.fault.max_restarts); }},
      {"sim.max_sim_time_s", [](RunSpec& s) { bump(s.sim.max_sim_time_s); }},
      {"sim.record_epoch_logs", [](RunSpec& s) { bump(s.sim.record_epoch_logs); }},
      {"trace.num_jobs", [](RunSpec& s) { bump(s.trace.num_jobs); }},
      {"trace.mean_interarrival_s", [](RunSpec& s) { bump(s.trace.mean_interarrival_s); }},
      {"trace.seed", [](RunSpec& s) { bump(s.trace.seed); }},
      {"trace.poisson_arrivals", [](RunSpec& s) { bump(s.trace.poisson_arrivals); }},
      {"trace.abnormal_fraction", [](RunSpec& s) { bump(s.trace.abnormal_fraction); }},
      {"trace.abnormal_mean_lifetime_s",
       [](RunSpec& s) { bump(s.trace.abnormal_mean_lifetime_s); }},
      {"trace.max_requested_gpus", [](RunSpec& s) { bump(s.trace.max_requested_gpus); }},
      {"trace.diurnal_amplitude", [](RunSpec& s) { bump(s.trace.diurnal_amplitude); }},
  };

  const auto base = tiny_spec();
  const std::string key = cache_key(base);
  EXPECT_EQ(key, cache_key(tiny_spec()));  // deterministic

  // Every serialized line but the schema version has a knob above, so a
  // field added to canonical_serialize without one fails here.
  const std::vector<std::string> base_lines = lines_of(canonical_serialize(base));
  EXPECT_EQ(std::size(knobs) + 1, base_lines.size());

  for (const Knob& knob : knobs) {
    RunSpec spec = base;
    knob.mutate(spec);
    EXPECT_NE(cache_key(spec), key) << knob.key;
    // The knob moves its own line and no other.
    const std::vector<std::string> lines = lines_of(canonical_serialize(spec));
    ASSERT_EQ(lines.size(), base_lines.size()) << knob.key;
    int changed = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i] == base_lines[i]) continue;
      ++changed;
      EXPECT_EQ(lines[i].rfind(std::string(knob.key) + "=", 0), 0u) << knob.key;
    }
    EXPECT_EQ(changed, 1) << knob.key;
  }

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
  // validate_output_dirs guards every output-dir flag (--trace-dir,
  // --metrics-dir, --prof-dir): a path that cannot be a writable directory
  // must abort the bench before any run executes.
  GridOptions grid;
  grid.prof_dir = "/proc/not-a-writable-dir";
  EXPECT_EXIT(validate_output_dirs(grid, "test"), testing::ExitedWithCode(2), "--prof-dir");
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The trace writer, metrics registry and profiler share one contract
// (DESIGN.md §6): each may observe an executed run, never steer it; its
// files are byte-identical for any thread count (for the profiler: its span
// paths and counts); and a cache-served run emits nothing. Each contract
// below is written once, over a set of instruments, and checked for each
// instrument alone and for all three at once.
struct InstrumentSet {
  const char* name;
  bool trace;
  bool metrics;
  bool prof;
};
constexpr InstrumentSet kTrace{"trace", true, false, false};
constexpr InstrumentSet kMetrics{"metrics", false, true, false};
constexpr InstrumentSet kProf{"prof", false, false, true};
constexpr InstrumentSet kAllInstruments{"all", true, true, true};

/// `opt` with every instrument of `set` writing into `dir`.
GridOptions instrumented(GridOptions opt, const InstrumentSet& set, const std::string& dir) {
  if (set.trace) opt.trace_dir = dir;
  if (set.metrics) opt.metrics_dir = dir;
  if (set.prof) opt.prof_dir = dir;
  return opt;
}

/// The files each executed run writes under `set`.
std::vector<std::string> extensions(const InstrumentSet& set) {
  std::vector<std::string> exts;
  if (set.trace) exts.insert(exts.end(), {".jsonl", ".trace.json"});
  if (set.metrics) exts.insert(exts.end(), {".timeline.csv", ".prom", ".metrics.json"});
  if (set.prof) exts.emplace_back(".prof.json");
  return exts;
}

/// `dir` holds exactly one file per (spec, extension): none missing, no
/// stray temp file.
void expect_exactly_outputs(const std::string& dir, const std::vector<RunSpec>& specs,
                            const InstrumentSet& set) {
  std::set<std::string> expected, found;
  for (const auto& spec : specs) {
    for (const auto& ext : extensions(set)) expected.insert(cache_key(spec) + ext);
  }
  for (const auto& e : fs::directory_iterator(dir)) found.insert(e.path().filename().string());
  EXPECT_EQ(found, expected);
}

/// (path, count) of every span in a `.prof.json`.
std::vector<std::pair<std::string, double>> span_counts(const std::string& prof_json) {
  const JsonValue doc = parse_json(prof_json);
  const JsonValue* spans = doc.find("spans");
  EXPECT_NE(spans, nullptr);
  std::vector<std::pair<std::string, double>> out;
  if (spans == nullptr) return out;
  for (const JsonValue& span : spans->array) {
    out.emplace_back(span.find("path")->string, span.find("count")->number);
  }
  return out;
}

/// FIFO and Tiresias on two seeds, plus ONES and ONES-SA: the two searches
/// are where metrics and the profiler reach inside a policy, and ONES
/// resizes jobs elastically, which is where a trace sink adds engine events
/// of its own (elastic_resumed) that events_fired must not count.
std::vector<RunSpec> instrumented_grid() {
  auto specs = tiny_grid();
  RunSpec ones = tiny_spec();
  ones.scheduler = "ONES";
  ones.factory = [] { return std::make_unique<core::OnesScheduler>(); };
  specs.push_back(std::move(ones));
  RunSpec annealing = tiny_spec();
  annealing.scheduler = "ONES-SA";
  annealing.factory = [] { return std::make_unique<core::AnnealingScheduler>(); };
  specs.push_back(std::move(annealing));
  return specs;
}

void expect_results_unchanged(const InstrumentSet& set) {
  TempCacheDir dir(std::string("ones_exp_results_") + set.name);
  const auto specs = instrumented_grid();
  const auto plain = run_grid(specs, quiet_options(2));
  const auto observed = run_grid(specs, instrumented(quiet_options(2), set, dir.path()));
  ASSERT_EQ(plain.size(), observed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) expect_identical(plain[i], observed[i]);
  expect_exactly_outputs(dir.path(), specs, set);
}

void expect_identical_for_any_thread_count(const InstrumentSet& set) {
  const auto specs = instrumented_grid();
  TempCacheDir serial_dir(std::string("ones_exp_serial_") + set.name);
  TempCacheDir parallel_dir(std::string("ones_exp_parallel_") + set.name);
  prof::ProfileRollup serial_rollup, parallel_rollup;
  auto serial_opt = instrumented(quiet_options(1), set, serial_dir.path());
  auto parallel_opt = instrumented(quiet_options(4), set, parallel_dir.path());
  if (set.prof) {
    serial_opt.prof = &serial_rollup;
    parallel_opt.prof = &parallel_rollup;
  }
  run_grid(specs, serial_opt);
  run_grid(specs, parallel_opt);

  const trace::TraceReplayer replayer;
  for (const auto& spec : specs) {
    for (const auto& ext : extensions(set)) {
      const std::string where = cache_key(spec) + ext;
      const std::string serial = read_file(fs::path(serial_dir.path()) / where);
      const std::string parallel = read_file(fs::path(parallel_dir.path()) / where);
      ASSERT_FALSE(serial.empty()) << where;
      if (ext == ".prof.json") {
        // Span paths and counts are deterministic; nanoseconds are host noise.
        const auto spans = span_counts(serial);
        EXPECT_FALSE(spans.empty()) << where;
        EXPECT_EQ(spans, span_counts(parallel)) << where;
      } else if (ext != ".trace.json" || !set.prof) {
        // A merged host-span track makes the Chrome trace wall-clock.
        EXPECT_EQ(serial, parallel) << where;
      }
      if (ext == ".jsonl") {
        const auto report = replayer.check_jsonl(serial);
        EXPECT_TRUE(report.ok()) << where << ":\n" << report.to_string();
      }
    }
  }
  expect_exactly_outputs(serial_dir.path(), specs, set);
  expect_exactly_outputs(parallel_dir.path(), specs, set);

  // Path-keyed aggregation makes the rollup merge order-independent.
  const auto serial = serial_rollup.stats();
  const auto parallel = parallel_rollup.stats();
  EXPECT_EQ(serial.empty(), !set.prof);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].path, parallel[i].path);
    EXPECT_EQ(serial[i].count, parallel[i].count) << serial[i].path;
  }
}

void expect_cache_served_runs_emit_nothing(const InstrumentSet& set) {
  TempCacheDir cache_dir(std::string("ones_exp_cache_") + set.name);
  TempCacheDir out_dir(std::string("ones_exp_cached_out_") + set.name);
  const std::vector<RunSpec> specs = {tiny_spec()};

  // Cold pass populates the cache, uninstrumented.
  run_grid(specs, quiet_options(1, true, cache_dir.path()));

  // Warm pass asks for instruments, but every run is cache-served: files of
  // a run that never re-executed would be a lie, so nothing may appear.
  const auto warm =
      run_grid(specs, instrumented(quiet_options(1, true, cache_dir.path()), set, out_dir.path()));
  ASSERT_TRUE(warm[0].from_cache);
  EXPECT_TRUE(!fs::exists(out_dir.path()) || fs::is_empty(out_dir.path()));

  // Bypassing the cache re-executes and instruments again.
  run_grid(specs, instrumented(quiet_options(1, false, cache_dir.path()), set, out_dir.path()));
  expect_exactly_outputs(out_dir.path(), specs, set);
}

TEST(ExpTracing, TracingDoesNotChangeResults) { expect_results_unchanged(kTrace); }
TEST(ExpMetrics, MetricsDoNotChangeResults) { expect_results_unchanged(kMetrics); }
TEST(ExpProfiling, ProfilingDoesNotChangeResults) { expect_results_unchanged(kProf); }
TEST(ExpInstruments, AllThreeDoNotChangeResults) {
  expect_results_unchanged(kAllInstruments);
}

TEST(ExpTracing, TraceBytesIdenticalForAnyThreadCount) {
  expect_identical_for_any_thread_count(kTrace);
}
TEST(ExpMetrics, MetricsBytesIdenticalForAnyThreadCount) {
  expect_identical_for_any_thread_count(kMetrics);
}
TEST(ExpProfiling, SpanPathsAndCountsIdenticalForAnyThreadCount) {
  expect_identical_for_any_thread_count(kProf);
}
TEST(ExpInstruments, AllThreeIdenticalForAnyThreadCount) {
  expect_identical_for_any_thread_count(kAllInstruments);
}

TEST(ExpTracing, CacheServedRunsEmitNoTrace) { expect_cache_served_runs_emit_nothing(kTrace); }
TEST(ExpMetrics, CacheServedRunsEmitNoMetrics) {
  expect_cache_served_runs_emit_nothing(kMetrics);
}
TEST(ExpProfiling, CacheServedRunsEmitNoProfiles) {
  expect_cache_served_runs_emit_nothing(kProf);
}
TEST(ExpInstruments, CacheServedRunsEmitNothingWithAllThree) {
  expect_cache_served_runs_emit_nothing(kAllInstruments);
}

/// The `"cache"` object and whether the profile holds a `decision` span, of
/// the BENCH file a BenchReport over `specs` writes after one grid.
std::pair<JsonValue, bool> bench_report_once(const std::vector<RunSpec>& specs,
                                             const std::string& cache_dir,
                                             const std::string& bench_json) {
  BenchOptions opt;
  opt.grid = quiet_options(2, true, cache_dir);
  opt.bench_json = bench_json;
  {
    bench::BenchReport report("exp_test", opt);
    report.run_grid(specs);
  }
  const JsonValue doc = parse_json(read_file(bench_json));
  const JsonValue* cache = doc.find("cache");
  const JsonValue* profile = doc.find("profile");
  EXPECT_NE(cache, nullptr);
  EXPECT_NE(profile, nullptr);
  bool decision = false;
  if (profile != nullptr) {
    for (const JsonValue& span : profile->array) {
      decision = decision || span.find("path")->string.rfind("decision", 0) == 0;
    }
  }
  return {cache != nullptr ? *cache : JsonValue{}, decision};
}

TEST(ExpBenchReport, CountsCacheHitsAndProfilesEveryExecutedRun) {
  TempCacheDir cache_dir("ones_exp_bench_report_cache");
  TempCacheDir out_dir("ones_exp_bench_report_out");
  fs::create_directories(out_dir.path());
  const std::string bench_json = (fs::path(out_dir.path()) / "BENCH_exp_test.json").string();
  const auto specs = tiny_grid();
  const auto n = static_cast<double>(specs.size());

  // Cold: every run executes, and its spans reach the BENCH profile without
  // any --prof-dir.
  const auto [cold, cold_decision] = bench_report_once(specs, cache_dir.path(), bench_json);
  ASSERT_EQ(cold.object.size(), 2u);
  EXPECT_EQ(cold.object[0].first, "hits");
  EXPECT_EQ(cold.object[0].second.number, 0.0);
  EXPECT_EQ(cold.object[1].first, "executed");
  EXPECT_EQ(cold.object[1].second.number, n);
  EXPECT_TRUE(cold_decision);

  // Warm: every run is cache-served, so no decision was profiled.
  const auto [warm, warm_decision] = bench_report_once(specs, cache_dir.path(), bench_json);
  ASSERT_EQ(warm.object.size(), 2u);
  EXPECT_EQ(warm.find("hits")->number, n);
  EXPECT_EQ(warm.find("executed")->number, 0.0);
  EXPECT_FALSE(warm_decision);
}

TEST(ExpTracing, RollupWithoutProfDirLeavesTraceFilesAsTheyAre) {
  // The bench rollup is always on; the Chrome trace gains a host-span track
  // only under prof_dir, so a traced run's files match an unprofiled run's.
  const std::vector<RunSpec> specs = {tiny_spec()};
  TempCacheDir plain_dir("ones_exp_trace_plain");
  TempCacheDir rolled_dir("ones_exp_trace_rolled");
  prof::ProfileRollup rollup;
  run_grid(specs, instrumented(quiet_options(1), kTrace, plain_dir.path()));
  auto rolled = instrumented(quiet_options(1), kTrace, rolled_dir.path());
  rolled.prof = &rollup;
  run_grid(specs, rolled);
  EXPECT_FALSE(rollup.empty());
  for (const auto& ext : extensions(kTrace)) {
    const std::string where = cache_key(specs[0]) + ext;
    const std::string plain = read_file(fs::path(plain_dir.path()) / where);
    ASSERT_FALSE(plain.empty()) << where;
    EXPECT_EQ(plain, read_file(fs::path(rolled_dir.path()) / where)) << where;
  }
}

/// FIFO that throws on its 5th event: a run that fails mid-simulation.
class ThrowsOnFifthEvent final : public sched::FifoScheduler {
 public:
  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override {
    if (++events_ == 5) throw std::runtime_error("scheduler exploded");
    return FifoScheduler::on_event(state, event);
  }

 private:
  int events_ = 0;
};

TEST(ExpInstruments, FailedRunLeavesNoFile) {
  // The trace streams while the run executes; a run that throws must not
  // leave it behind under its final name (nor as a temp file).
  TempCacheDir dir("ones_exp_failed_run_outputs");
  std::vector<RunSpec> specs = {tiny_spec()};
  specs[0].factory = [] { return std::make_unique<ThrowsOnFifthEvent>(); };
  EXPECT_THROW(run_grid(specs, instrumented(quiet_options(1), kAllInstruments, dir.path())),
               std::runtime_error);
  std::vector<std::string> found;
  if (fs::exists(dir.path())) {
    for (const auto& e : fs::directory_iterator(dir.path())) {
      found.push_back(e.path().filename().string());
    }
  }
  EXPECT_EQ(found, std::vector<std::string>{});
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
