#include "exp/orchestrator.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <typeinfo>
#include <unordered_map>

#include "common/expect.hpp"
#include "exp/progress.hpp"
#include "prof/export.hpp"
#include "sched/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "workload/trace.hpp"

namespace ones::exp {

namespace {

std::string run_label(const RunSpec& spec) {
  std::string label = spec.scheduler;
  if (!spec.variant.empty()) label += "/" + spec.variant;
  label += " seed=" + std::to_string(spec.trace.seed);
  return label;
}

}  // namespace

RunResult run_simulation(const sched::SimulationConfig& config,
                         const std::vector<workload::JobSpec>& trace,
                         sched::Scheduler& scheduler) {
  sched::ClusterSimulation sim(config, trace, scheduler);
  sim.run();
  RunResult r;
  r.summary = sim.summary(scheduler.name());
  r.jcts = sim.metrics().jcts();
  r.exec_times = sim.metrics().exec_times();
  r.queue_times = sim.metrics().queue_times();
  for (const auto& [id, jct] : sim.metrics().jct_by_job()) r.jct_by_job[id] = jct;
  r.completed = sim.completed_jobs();
  r.events_fired = sim.events_fired();
  r.deployments = sim.deployments();
  return r;
}

RunInstruments::RunInstruments(const GridOptions& options, std::string stem)
    : stem_(std::move(stem)),
      metrics_dir_(options.metrics_dir),
      prof_dir_(options.prof_dir),
      rollup_(options.prof) {
  if (!options.trace_dir.empty()) writer_.emplace(options.trace_dir, stem_);
  if (!metrics_dir_.empty()) metrics_.emplace();
  if (!prof_dir_.empty() || rollup_ != nullptr) {
    profiler_.emplace();
    // The Chrome merge is a --prof-dir output: a rollup alone leaves the
    // trace files as they are without profiling.
    if (writer_ && !prof_dir_.empty()) profiler_->enable_timeline();
  }
}

void RunInstruments::attach(sched::SimulationConfig& config) {
  config.trace_sink = writer_ ? &*writer_ : nullptr;
  config.metrics = metrics_ ? &*metrics_ : nullptr;
  config.profiler = profiler();
}

void RunInstruments::export_outputs() {
  if (metrics_) {
    const prof::Scope span(profiler(), "export.metrics");
    telemetry::write_metrics_files(*metrics_, metrics_dir_, stem_);
  }
  if (writer_) {
    // Host spans merge into the Chrome trace only: the deterministic JSONL
    // stream (the golden-digest format) never sees profiler output. This
    // span is not in the timeline it merges.
    const prof::Scope span(profiler(), "export.trace");
    if (profiler_ && profiler_->timeline_enabled()) {
      for (const std::string& ev : prof::chrome_span_events(*profiler_)) {
        writer_->chrome_raw_event(ev);
      }
    }
    writer_->close();
  }
}

void RunInstruments::export_profile() {
  if (!profiler_) return;
  if (!prof_dir_.empty()) prof::write_profile_file(prof_dir_, stem_, profiler_->stats());
  if (rollup_ != nullptr) rollup_->add(*profiler_);
}

RunResult execute_run(const RunSpec& spec, RunInstruments* instruments) {
  ONES_EXPECT_MSG(static_cast<bool>(spec.factory), "RunSpec has no scheduler factory");
  const auto trace = workload::generate_trace(spec.trace);
  const auto scheduler = spec.factory();
  ONES_EXPECT_MSG(scheduler != nullptr, "scheduler factory returned null");
  sched::SimulationConfig config = spec.sim;
  if (instruments != nullptr) instruments->attach(config);
  return run_simulation(config, trace, *scheduler);
}

std::vector<RunResult> run_grid(const std::vector<RunSpec>& specs,
                                const GridOptions& options) {
  ONES_EXPECT_MSG(!specs.empty(), "run_grid requires a non-empty grid");
  ONES_EXPECT_MSG(options.threads >= 1, "run_grid requires threads >= 1");
  // Best-effort variant-aliasing guard: two specs that hash to the same
  // cache key must build the same kind of scheduler, otherwise one config's
  // cached results would silently be served for the other. Comparing the
  // factories' target types catches the common bug (distinct factory functor
  // types, e.g. different lambdas, with no RunSpec::variant); identical
  // lambda types with different captured configs remain the caller's duty
  // (DESIGN.md §6).
  std::unordered_map<std::string, const std::type_info*> key_factory_type;
  for (const auto& spec : specs) {
    ONES_EXPECT_MSG(static_cast<bool>(spec.factory),
                    "every RunSpec needs a scheduler factory");
    ONES_EXPECT_MSG(!spec.scheduler.empty(), "every RunSpec needs a scheduler name");
    const std::type_info& type = spec.factory.target_type();
    const auto [it, inserted] = key_factory_type.emplace(cache_key(spec), &type);
    ONES_EXPECT_MSG(inserted || *it->second == type,
                    "two RunSpecs alias cache key '" + it->first +
                        "' with different scheduler factories — set "
                        "RunSpec::variant to distinguish their configurations");
  }

  const ResultCache cache(options.cache_dir, options.use_cache);
  ProgressReporter progress(specs.size(), options.progress);
  std::vector<RunResult> results(specs.size());

  // Orchestrator-level spans (cache probes) collect on this serial-phase
  // profiler; per-run spans collect on each run's RunInstruments below.
  std::optional<prof::Profiler> grid_prof;
  if (!options.prof_dir.empty() || options.prof != nullptr) grid_prof.emplace();

  // Resolve cache hits up front (cheap I/O, serial) and queue the misses.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::optional<RunResult> hit;
    {
      const prof::Scope span(grid_prof ? &*grid_prof : nullptr, "cache.read");
      hit = cache.load(specs[i]);
    }
    if (hit) {
      results[i] = std::move(*hit);
      progress.on_cached(run_label(specs[i]));
    } else {
      pending.push_back(i);
    }
  }

  if (!pending.empty()) {
    // Work-stealing by atomic cursor: threads race only for WHICH pending
    // spec to run next; each result lands in its spec-order slot, so the
    // returned vector is independent of scheduling order.
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> abort{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
    std::mutex prof_mu;  // guards the shared ProfileRollup merge

    auto worker = [&]() {
      while (!abort.load(std::memory_order_relaxed)) {
        const std::size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
        if (slot >= pending.size()) return;
        const std::size_t i = pending[slot];
        try {
          // ones-lint: wall-clock-ok(per-run wall time feeds the stderr progress/ETA line only, never a result)
          const auto t0 = std::chrono::steady_clock::now();
          // Instruments per executed run: spans aggregate by path, never by
          // thread, so the merged rollup is independent of the thread count.
          RunInstruments instruments(options, cache_key(specs[i]));
          results[i] = execute_run(specs[i], &instruments);
          instruments.export_outputs();
          const double wall_s =
              // ones-lint: wall-clock-ok(cosmetic: progress/ETA reporting on stderr)
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
          {
            const prof::Scope span(instruments.profiler(), "cache.write");
            cache.store(specs[i], results[i]);
          }
          {
            const std::lock_guard<std::mutex> lock(prof_mu);
            instruments.export_profile();
          }
          progress.on_done(run_label(specs[i]), wall_s);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };

    const std::size_t n_workers =
        std::min(static_cast<std::size_t>(options.threads), pending.size());
    if (n_workers <= 1) {
      worker();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(n_workers);
      for (std::size_t w = 0; w < n_workers; ++w) threads.emplace_back(worker);
      for (auto& t : threads) t.join();
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  if (options.prof != nullptr && grid_prof) options.prof->add(*grid_prof);

  progress.finish(static_cast<std::size_t>(cache.hits()));
  return results;
}

RunResult pool_runs(const std::vector<RunResult>& runs) {
  ONES_EXPECT_MSG(!runs.empty(), "pool_runs requires at least one run");
  if (runs.size() == 1) return runs.front();

  RunResult pooled;
  pooled.summary.scheduler = runs.front().summary.scheduler;
  double makespan_sum = 0.0;
  double util_sum = 0.0;
  double joules_sum = 0.0;
  double overhead_sum = 0.0;
  for (const auto& r : runs) {
    pooled.jcts.insert(pooled.jcts.end(), r.jcts.begin(), r.jcts.end());
    pooled.exec_times.insert(pooled.exec_times.end(), r.exec_times.begin(),
                             r.exec_times.end());
    pooled.queue_times.insert(pooled.queue_times.end(), r.queue_times.begin(),
                              r.queue_times.end());
    pooled.completed += r.completed;
    makespan_sum += r.summary.makespan;
    util_sum += r.summary.utilization;
    joules_sum += r.summary.cluster_joules;
    overhead_sum += r.summary.overhead_joules;
    pooled.from_cache = pooled.from_cache || r.from_cache;
  }
  telemetry::summarize_jcts(pooled.summary, pooled.jcts, pooled.exec_times,
                            pooled.queue_times);
  pooled.summary.makespan = makespan_sum / static_cast<double>(runs.size());
  pooled.summary.utilization = util_sum / static_cast<double>(runs.size());
  pooled.summary.cluster_joules = joules_sum / static_cast<double>(runs.size());
  pooled.summary.overhead_joules = overhead_sum / static_cast<double>(runs.size());
  return pooled;
}

}  // namespace ones::exp
