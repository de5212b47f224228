// Shared helpers for the reproduction benches: the paper's evaluation
// configuration (64-GPU Longhorn-like cluster, Table 2 trace), scheduler
// factories for the orchestrated grid runner (src/exp), and a wall-clock
// timer every bench prints on exit.
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/host.hpp"
#include "common/json.hpp"
#include "core/ones_scheduler.hpp"
#include "drl/drl_scheduler.hpp"
#include "exp/cli.hpp"
#include "exp/orchestrator.hpp"
#include "prof/export.hpp"
#include "sched/fifo.hpp"
#include "sched/optimus.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "telemetry/metrics.hpp"
#include "workload/trace.hpp"

namespace ones::bench {

/// The paper's testbed: 16 nodes x 4 V100 = 64 GPUs (§4.1).
inline sched::SimulationConfig paper_sim_config(int nodes = 16) {
  sched::SimulationConfig c;
  c.topology.num_nodes = nodes;
  c.topology.gpus_per_node = 4;
  return c;
}

/// The evaluation trace: Table 2 variants, Poisson arrivals. The arrival
/// rate is calibrated so the cluster is contended (the regime the paper's
/// queuing/fragmentation arguments address).
inline workload::TraceConfig paper_trace_config(int jobs = 240,
                                                double interarrival_s = 4.5,
                                                std::uint64_t seed = 7) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival_s;
  t.seed = seed;
  return t;
}

/// Prints the bench's wall-clock duration when it goes out of scope, so the
/// BENCH_*.json trajectories can track runner speedups. Written to stderr:
/// stdout carries metric output that must stay byte-identical across runs.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* label = "bench")
      : label_(label), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    std::fprintf(stderr, "[%s] wall-clock: %.1f s\n", label_, s);
    std::fflush(stderr);
  }

 private:
  const char* label_;
  std::chrono::steady_clock::time_point start_;
};

/// Wall-clock stopwatch readable mid-flight — for the stderr-only
/// throughput lines (events/sec) of the hyperscale tiers. Like ScopedTimer,
/// it must never feed stdout or results (determinism, CLAUDE.md).
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set size (VmHWM) in MiB; 0.0 when unavailable (non-Linux).
/// Diagnostics only — callers print it to stderr or BENCH_*.json. The
/// reader itself lives in src/common (common::peak_rss_mib).
inline double peak_rss_mib() { return common::peak_rss_mib(); }

using RunResult = exp::RunResult;

inline RunResult run_one(const sched::SimulationConfig& config,
                         const std::vector<workload::JobSpec>& trace,
                         sched::Scheduler& scheduler) {
  return exp::run_simulation(config, trace, scheduler);
}

/// A named scheduler factory for grid specs. Every run gets a FRESH
/// scheduler instance (parallel runs must not share mutable policy state).
struct NamedFactory {
  std::string name;
  exp::SchedulerFactory make;
};

/// The DRL baseline trains lazily on first instantiation (thread-safe), so a
/// fully-cached grid never pays the offline training phase. Evaluation runs
/// copy the trained prototype.
inline exp::SchedulerFactory drl_factory() {
  auto proto = std::make_shared<drl::DrlScheduler>();
  auto once = std::make_shared<std::once_flag>();
  return [proto, once]() -> std::unique_ptr<sched::Scheduler> {
    std::call_once(*once, [&proto] {
      std::fprintf(stderr, "[setup] training the DRL baseline policy offline...\n");
      std::fflush(stderr);
      proto->train();
    });
    return std::make_unique<drl::DrlScheduler>(*proto);
  };
}

/// The four schedulers of the paper's evaluation (Table 3), in figure order.
inline std::vector<NamedFactory> paper_factories() {
  std::vector<NamedFactory> f;
  f.push_back({core::OnesScheduler().name(),
               [] { return std::make_unique<core::OnesScheduler>(); }});
  f.push_back({drl::DrlScheduler().name(), drl_factory()});
  f.push_back({sched::TiresiasScheduler().name(),
               [] { return std::make_unique<sched::TiresiasScheduler>(); }});
  f.push_back({sched::OptimusScheduler().name(),
               [] { return std::make_unique<sched::OptimusScheduler>(); }});
  return f;
}

/// Paper four plus the FIFO / SRTF-oracle reference points.
inline std::vector<NamedFactory> all_factories() {
  auto f = paper_factories();
  f.push_back({sched::FifoScheduler().name(),
               [] { return std::make_unique<sched::FifoScheduler>(); }});
  f.push_back({sched::SrtfOracleScheduler().name(),
               [] { return std::make_unique<sched::SrtfOracleScheduler>(); }});
  return f;
}

/// Build the (factory-major, seed-minor) grid over seeds base..base+K-1 of
/// `trace`: the canonical layout the heavy benches share. Run i*K+k holds
/// factory i at seed k, so slices of K runs pool into one per-scheduler row.
inline std::vector<exp::RunSpec> seed_grid(const std::vector<NamedFactory>& factories,
                                           const sched::SimulationConfig& sim,
                                           const workload::TraceConfig& trace,
                                           int seeds) {
  std::vector<exp::RunSpec> specs;
  specs.reserve(factories.size() * static_cast<std::size_t>(seeds));
  for (const auto& f : factories) {
    for (int k = 0; k < seeds; ++k) {
      exp::RunSpec spec;
      spec.scheduler = f.name;
      spec.sim = sim;
      spec.trace = trace;
      spec.trace.seed = trace.seed + static_cast<std::uint64_t>(k);
      spec.factory = f.make;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// Pool each factory's seed-replicas out of a seed_grid result: returns one
/// RunResult per factory, in factory order.
inline std::vector<RunResult> pool_by_factory(const std::vector<RunResult>& runs,
                                              std::size_t n_factories, int seeds) {
  std::vector<RunResult> pooled;
  pooled.reserve(n_factories);
  for (std::size_t i = 0; i < n_factories; ++i) {
    const auto first = runs.begin() + static_cast<std::ptrdiff_t>(i * seeds);
    pooled.push_back(exp::pool_runs(std::vector<RunResult>(first, first + seeds)));
  }
  return pooled;
}

/// Concatenation over seeds of the per-seed (ONES, baseline) JCT pairs,
/// matched by job id within each seed (ids restart per trace, so pairing
/// must happen before pooling). `ones_runs` / `base_runs` are the K
/// seed-replicas of the two schedulers in seed order.
inline void paired_jcts(const std::vector<RunResult>& runs, std::size_t ones_index,
                        std::size_t base_index, int seeds, std::vector<double>& x,
                        std::vector<double>& y) {
  x.clear();
  y.clear();
  for (int k = 0; k < seeds; ++k) {
    const auto& ones_run = runs[ones_index * seeds + static_cast<std::size_t>(k)];
    const auto& base_run = runs[base_index * seeds + static_cast<std::size_t>(k)];
    for (const auto& [id, jct] : ones_run.jct_by_job) {
      auto it = base_run.jct_by_job.find(id);
      if (it != base_run.jct_by_job.end()) {
        x.push_back(jct);
        y.push_back(it->second);
      }
    }
  }
}

inline void print_rule(char ch = '-', int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar(ch);
  std::putchar('\n');
}

/// stderr footer with the orchestrator cache statistics run_grid recorded
/// into the bench's registry (GridOptions::registry). Printed next to the
/// ScopedTimer line — stdout carries metric output that must stay
/// byte-identical, so diagnostics never go there.
inline void print_cache_footer(const telemetry::MetricsRegistry& registry) {
  std::fprintf(stderr,
               "[cache] hits=%.0f misses=%.0f stores=%.0f demotions=%.0f executed=%.0f\n",
               registry.counter_value("exp_cache_hits_total"),
               registry.counter_value("exp_cache_misses_total"),
               registry.counter_value("exp_cache_stores_total"),
               registry.counter_value("exp_cache_demotions_total"),
               registry.counter_value("exp_runs_executed_total"));
  std::fflush(stderr);
}

/// Canonical machine-readable bench results (DESIGN.md §14). Construct one
/// per bench from the parsed CLI options; feed it the deterministic headline
/// metrics (`metric`), host-side measurements (`host_metric`), the cache
/// statistics registry and — via `profile()` wired into
/// `GridOptions::prof` — the merged host-span rollup. On destruction it
/// prints the stderr footer (wall-clock, peak RSS, span table) and writes
/// `BENCH_<name>.json` (or `--bench-json=PATH`) via temp-file + rename.
/// Deterministic metric values are strictly separated from host noise: the
/// `metrics` object must be byte-stable across runs and thread counts, while
/// everything under `host` (and the profile nanoseconds) is wall-clock.
/// `--no-bench-json` keeps the stderr footer but skips the file.
class BenchReport {
 public:
  BenchReport(const std::string& name, const exp::BenchOptions& opt)
      : name_(name),
        threads_(opt.grid.threads),
        seeds_(opt.seeds),
        enabled_(opt.write_bench_json),
        path_(opt.bench_json.empty() ? "BENCH_" + name + ".json" : opt.bench_json),
        start_(std::chrono::steady_clock::now()) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// A deterministic headline result (same value for any --threads).
  void metric(const std::string& key, double value) { metrics_[key] = value; }
  /// A host-side measurement (wall-clock, throughput, ...): machine noise,
  /// compared warn-only by tools/bench_diff.
  void host_metric(const std::string& key, double value) { host_metrics_[key] = value; }

  /// Copy the orchestrator cache statistics out of the bench registry
  /// (GridOptions::registry after run_grid).
  void cache_stats_from(const telemetry::MetricsRegistry& registry) {
    cache_["hits"] = registry.counter_value("exp_cache_hits_total");
    cache_["misses"] = registry.counter_value("exp_cache_misses_total");
    cache_["stores"] = registry.counter_value("exp_cache_stores_total");
    cache_["demotions"] = registry.counter_value("exp_cache_demotions_total");
    cache_["executed"] = registry.counter_value("exp_runs_executed_total");
    have_cache_ = true;
  }

  /// The bench-level span rollup; point GridOptions::prof at it (only when
  /// the user asked for profiling — the off-by-default contract is the
  /// bench's to keep) or `add` profilers manually.
  prof::ProfileRollup& profile() { return profile_; }

  ~BenchReport() {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    const double rss_mib = common::peak_rss_mib();
    std::fprintf(stderr, "[%s] wall-clock: %.1f s  peak-rss: %.1f MiB\n", name_.c_str(),
                 wall_s, rss_mib);
    if (!profile_.empty()) std::fputs(prof::format_profile(profile_.stats()).c_str(), stderr);
    std::fflush(stderr);
    if (!enabled_) return;
    try {
      write_json(wall_s, rss_mib);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[%s] failed writing '%s': %s\n", name_.c_str(), path_.c_str(),
                   e.what());
    }
  }

 private:
  void write_json(double wall_s, double rss_mib) const {
    namespace fs = std::filesystem;
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot open temp file");
      out << "{\"schema\":1,\"bench\":" << json_quote(name_)
          << ",\"threads\":" << threads_ << ",\"seeds\":" << seeds_;
      out << ",\n\"metrics\":{";
      write_map(out, metrics_);
      out << "},\n\"host\":{\"wall_seconds\":" << json_double(wall_s)
          << ",\"peak_rss_mib\":" << json_double(rss_mib) << ",\"metrics\":{";
      write_map(out, host_metrics_);
      out << "}}";
      if (have_cache_) {
        out << ",\n\"cache\":{";
        write_map(out, cache_);
        out << "}";
      }
      out << ",\n\"profile\":[";
      bool first = true;
      for (const prof::SpanStats& s : profile_.stats()) {
        out << (first ? "\n" : ",\n") << "{\"path\":" << json_quote(s.path)
            << ",\"count\":" << s.count << ",\"total_ns\":" << s.total_ns
            << ",\"self_ns\":" << s.self_ns << '}';
        first = false;
      }
      out << "\n]}\n";
      if (!out.good()) throw std::runtime_error("write failed");
    }
    fs::rename(tmp, path_);
  }

  static void write_map(std::ostream& out, const std::map<std::string, double>& m) {
    bool first = true;
    for (const auto& [k, v] : m) {
      out << (first ? "" : ",") << json_quote(k) << ':' << json_double(v);
      first = false;
    }
  }

  std::string name_;
  int threads_;
  int seeds_;
  bool enabled_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> host_metrics_;
  std::map<std::string, double> cache_;
  bool have_cache_ = false;
  prof::ProfileRollup profile_;
};

}  // namespace ones::bench
