// Parallel experiment orchestration.
//
// `run_grid` fans a declarative grid of RunSpecs out over a pool of
// std::thread workers and returns one RunResult per spec, IN SPEC ORDER.
//
// Determinism argument (see DESIGN.md §7): each run constructs a fresh
// scheduler from its factory, generates its own trace from the spec's seed,
// and owns its ClusterSimulation — all randomness flows from per-run
// `ones::Rng` seeds, and the simulator has no mutable global state. Threads
// only race for *which* run to execute next; results land in a pre-sized
// vector slot indexed by spec position, so aggregation order — and therefore
// every downstream number — is independent of the thread count and of
// completion order. `run_grid(specs, threads=N)` is bit-identical to
// `threads=1` for every N.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/cache.hpp"
#include "exp/result.hpp"
#include "exp/run_spec.hpp"
#include "prof/profiler.hpp"
#include "telemetry/registry.hpp"
#include "trace/sink.hpp"

namespace ones::exp {

struct GridOptions {
  /// Worker threads; must be >= 1. More threads than (uncached) specs is
  /// fine — the extras exit immediately.
  int threads = 1;
  bool use_cache = true;
  std::string cache_dir = ".ones-cache";
  /// Progress / ETA lines on stderr.
  bool progress = true;
  /// Instrument output directories, each off when empty. Every EXECUTED
  /// run writes its files there through a RunInstruments named by its cache
  /// key; cache-served runs emit nothing, and no instrument is a cache-key
  /// input or changes a result (DESIGN.md §6). `trace_dir` gets
  /// `.jsonl` + `.trace.json` (§8), `metrics_dir` `.timeline.csv` + `.prom`
  /// + `.metrics.json` (§9), `prof_dir` `.prof.json` (§14); with both
  /// `trace_dir` and `prof_dir` set, each run's span timeline also merges
  /// into its `.trace.json` as a wall-clock track (the `.jsonl` stream is
  /// untouched).
  std::string trace_dir;
  std::string metrics_dir;
  std::string prof_dir;
  /// Optional grid-level rollup (not owned). When non-null, profiling is on
  /// even without prof_dir and every run's spans (plus the orchestrator's
  /// own `cache.read`/`cache.write` spans) are aggregated into it by span
  /// path — a deterministic merge independent of thread count. It writes no
  /// file and leaves every trace file as it is without profiling.
  prof::ProfileRollup* prof = nullptr;
};

/// One run's optional instruments (DESIGN.md §6): the trace writer, metrics
/// registry and host-time profiler that `GridOptions`' output directories
/// and rollup ask for, opened, attached and exported the same way by every
/// caller. Each file is named `<stem>.<ext>`.
class RunInstruments {
 public:
  /// A trace writer when `trace_dir` is set, a registry when `metrics_dir`
  /// is, and a profiler when `prof_dir` or the `prof` rollup is (keeping a
  /// timeline for the Chrome merge when both `trace_dir` and `prof_dir` are).
  RunInstruments(const GridOptions& options, std::string stem);

  /// Point `config`'s trace sink, metrics registry and profiler at this
  /// run's instruments; the ones that are off stay null.
  void attach(sched::SimulationConfig& config);

  /// After the run: the metrics files under an `export.metrics` span, then
  /// the host-span merge into the Chrome trace (when the profiler keeps a
  /// timeline) and the writer's close under `export.trace`.
  void export_outputs();

  /// `<stem>.prof.json` and the merge into the rollup. Callers that share
  /// one rollup across threads serialize this call.
  void export_profile();

  /// Null when profiling is off.
  prof::Profiler* profiler() { return profiler_ ? &*profiler_ : nullptr; }

 private:
  std::string stem_;
  std::string metrics_dir_;
  std::string prof_dir_;
  prof::ProfileRollup* rollup_;
  std::optional<trace::RunTraceWriter> writer_;
  std::optional<telemetry::MetricsRegistry> metrics_;
  std::optional<prof::Profiler> profiler_;
};

/// Execute one simulation: build the scheduler from the spec's factory,
/// generate the trace, run, and collect metrics. (Also the body of each
/// orchestrator worker; exposed for benches that run a single config.)
/// `instruments`, when non-null, attach to the run; they never change its
/// results (asserted in tests/exp_test.cpp).
RunResult execute_run(const RunSpec& spec, RunInstruments* instruments = nullptr);

/// Collect metrics from an already-constructed simulation setup (the legacy
/// single-run path used by light benches and examples).
RunResult run_simulation(const sched::SimulationConfig& config,
                         const std::vector<workload::JobSpec>& trace,
                         sched::Scheduler& scheduler);

/// Fan the grid out over `options.threads` workers. Preconditions
/// (ONES_EXPECT): non-empty grid, threads >= 1, every spec has a factory and
/// a scheduler name, and no two specs may map to the same cache key with
/// different scheduler-factory types — that is the variant-aliasing bug
/// DESIGN.md §6 warns about (a non-default scheduler config not reflected in
/// RunSpec::variant), and it would silently serve one config's results for
/// the other. The first exception thrown by a worker aborts the remaining
/// queue and is rethrown on the calling thread.
std::vector<RunResult> run_grid(const std::vector<RunSpec>& specs,
                                const GridOptions& options = {});

/// Pool per-seed replicas of the same configuration into one RunResult:
/// distribution vectors are concatenated (grid order preserved), averages
/// and quantiles are recomputed over the pooled sample, and makespan /
/// utilization are averaged across seeds. `jct_by_job` is only kept for a
/// single run — job ids collide across seeds, so multi-seed paired tests
/// must pair per seed before pooling. Requires non-empty input.
RunResult pool_runs(const std::vector<RunResult>& runs);

}  // namespace ones::exp
