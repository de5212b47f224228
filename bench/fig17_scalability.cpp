// Figures 17 & 18 reproduction: scheduling scalability across cluster
// capacities (16 -> 64 GPUs) on a fixed trace.
//
//   Fig 17: average JCT / execution time / queuing time per scheduler and
//           cluster size — all fall as capacity grows, queuing near-linearly.
//   Fig 18: ONES's average-JCT improvement over each baseline — which grows
//           with the cluster size (ONES exploits free GPUs best).
//
// Runs through the src/exp orchestrator (--threads / --seeds / --no-cache).
// Every (scheduler, capacity, seed) cell is an independent simulation with a
// fresh scheduler instance — the pre-orchestrator version reused one
// scheduler object across capacities, leaking predictor state between runs.
//
// `--scale=hyperscale` switches to the event-engine stress grid
// (DESIGN.md §12): 1,000 -> 10,000 GPUs and 10k -> 100k jobs under the FIFO
// policies, reporting deterministic event/deployment counts on stdout and
// the wall-clock throughput curve (events/sec, decisions/sec, peak RSS) on
// stderr. stdout stays byte-identical for any --threads value in both modes.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace ones;

namespace {

int run_paper(const exp::BenchOptions& opt, bench::BenchReport& report) {
  const auto trace_config = bench::paper_trace_config(240, 4.5);
  const std::vector<int> node_counts = {4, 8, 12, 16};  // 16..64 GPUs

  std::printf("Figures 17/18: scalability, %d jobs, cluster capacity 16..64 GPUs\n",
              trace_config.num_jobs);

  const auto factories = bench::paper_factories();
  std::vector<std::string> order;
  for (const auto& f : factories) order.push_back(f.name);

  telemetry::MetricsRegistry bench_registry;
  exp::GridOptions grid = opt.grid;
  grid.registry = &bench_registry;
  if (!grid.prof_dir.empty()) grid.prof = &report.profile();

  // Grid layout: capacity-major, then (factory-major, seed-minor) per
  // capacity — the seed_grid slices concatenate in node_counts order.
  std::vector<exp::RunSpec> specs;
  for (int nodes : node_counts) {
    const auto capacity_specs = bench::seed_grid(factories, bench::paper_sim_config(nodes),
                                                 trace_config, opt.seeds);
    specs.insert(specs.end(), capacity_specs.begin(), capacity_specs.end());
  }
  const auto runs = exp::run_grid(specs, grid);

  // scheduler -> per-capacity summaries, pooled over seeds
  std::map<std::string, std::vector<telemetry::Summary>> table;
  const std::size_t per_capacity = factories.size() * static_cast<std::size_t>(opt.seeds);
  for (std::size_t c = 0; c < node_counts.size(); ++c) {
    const auto first = runs.begin() + static_cast<std::ptrdiff_t>(c * per_capacity);
    const auto pooled = bench::pool_by_factory(
        std::vector<bench::RunResult>(first, first + static_cast<std::ptrdiff_t>(per_capacity)),
        factories.size(), opt.seeds);
    for (std::size_t f = 0; f < factories.size(); ++f) {
      table[order[f]].push_back(pooled[f].summary);
    }
  }

  auto print_metric = [&](const char* title, double telemetry::Summary::* field) {
    std::printf("\nFigure 17 — %s\n", title);
    std::printf("  %-10s", "scheduler");
    for (int nodes : node_counts) std::printf(" %9d", nodes * 4);
    std::printf("   (GPUs)\n");
    for (const auto& name : order) {
      std::printf("  %-10s", name.c_str());
      for (const auto& s : table[name]) std::printf(" %9.1f", s.*field);
      std::printf("\n");
    }
  };
  print_metric("average JCT (s)", &telemetry::Summary::avg_jct);
  print_metric("average execution time (s)", &telemetry::Summary::avg_exec);
  print_metric("average queuing time (s)", &telemetry::Summary::avg_queue);

  std::printf("\nFigure 18 — ONES average-JCT improvement vs baselines (%%)\n");
  std::printf("  %-10s", "baseline");
  for (int nodes : node_counts) std::printf(" %9d", nodes * 4);
  std::printf("   (GPUs)\n");
  std::vector<std::vector<double>> improvements;
  for (std::size_t b = 1; b < order.size(); ++b) {
    std::printf("  %-10s", order[b].c_str());
    std::vector<double> row;
    for (std::size_t c = 0; c < node_counts.size(); ++c) {
      const double ones_jct = table[order[0]][c].avg_jct;
      const double base_jct = table[order[b]][c].avg_jct;
      row.push_back(100.0 * (base_jct - ones_jct) / base_jct);
      std::printf(" %8.1f%%", row.back());
    }
    improvements.push_back(row);
    std::printf("\n");
  }

  std::printf("\nShape checks vs the paper:\n");
  bool jct_falls = true;
  for (const auto& name : order) {
    for (std::size_t c = 1; c < node_counts.size(); ++c) {
      if (table[name][c].avg_jct > table[name][c - 1].avg_jct * 1.05) jct_falls = false;
    }
  }
  std::printf("  average JCT falls as capacity grows (all schedulers): %s\n",
              jct_falls ? "OK" : "MISMATCH");
  bool positive_at_full = true;
  for (const auto& row : improvements) {
    if (row.back() <= 0.0) positive_at_full = false;
  }
  std::printf("  ONES improves on every baseline at 64 GPUs: %s\n",
              positive_at_full ? "OK" : "MISMATCH");
  bool queue_linear = true;
  for (const auto& name : order) {
    if (name == "Optimus") continue;  // round-based floor dominates its queue
    const double q16 = table[name].front().avg_queue;
    const double q64 = table[name].back().avg_queue;
    if (q64 > 0.33 * q16) queue_linear = false;
  }
  std::printf("  queuing time decreases near-linearly with capacity: %s\n",
              queue_linear ? "OK" : "MISMATCH");
  std::printf("\nNote on Fig 18's trend: the paper reports improvements *growing* from\n"
              "16 to 64 GPUs. On a fixed trace that holds while the largest cluster is\n"
              "still contended; once capacity outgrows the offered load, all schedulers\n"
              "converge and margins compress (see EXPERIMENTS.md).\n");
  for (const auto& name : order) {
    for (std::size_t c = 0; c < node_counts.size(); ++c) {
      const std::string suffix = name + "." + std::to_string(node_counts[c] * 4) + "gpu";
      report.metric("avg_jct." + suffix, table[name][c].avg_jct);
      report.metric("avg_queue." + suffix, table[name][c].avg_queue);
    }
  }
  report.cache_stats_from(bench_registry);
  bench::print_cache_footer(bench_registry);
  return 0;
}

// Event-engine stress grid: the offered load per GPU is held constant
// (10 jobs/GPU, arrival rate proportional to capacity) while the cluster
// grows 10x, so the event engine — not scheduler contention — is what the
// tiers sweep. FIFO policies only: their decisions are O(waiting + G), so
// end-to-end wall time tracks engine throughput instead of the evolutionary
// search, and 100k-job runs stay in CI-able territory.
int run_hyperscale(const exp::BenchOptions& opt, bench::BenchReport& report) {
  struct Tier {
    int nodes;
    int jobs;
    double interarrival_s;
  };
  const std::vector<Tier> tiers = {
      {250, 10000, 18.0}, {1000, 40000, 4.5}, {2500, 100000, 1.8}};

  std::vector<bench::NamedFactory> factories;
  factories.push_back(
      {"FIFO", [] { return std::make_unique<sched::FifoScheduler>(false); }});
  factories.push_back(
      {"FIFO-BF", [] { return std::make_unique<sched::FifoScheduler>(true); }});

  std::printf(
      "Hyperscale scalability: event-engine stress, 1,000..10,000 GPUs\n");

  telemetry::MetricsRegistry bench_registry;
  exp::GridOptions grid = opt.grid;
  grid.registry = &bench_registry;
  if (!grid.prof_dir.empty()) grid.prof = &report.profile();

  const std::size_t per_tier = factories.size() * static_cast<std::size_t>(opt.seeds);
  double prev_executed = 0.0;
  std::vector<std::uint64_t> tier_events;
  bool all_complete = true;
  for (const auto& tier : tiers) {
    sched::SimulationConfig sim = bench::paper_sim_config(tier.nodes);
    // FIFO never reads epoch logs; at 100k jobs they are pure memory ballast.
    sim.record_epoch_logs = false;
    workload::TraceConfig trace = bench::paper_trace_config(tier.jobs, tier.interarrival_s);
    trace.max_requested_gpus = 8;
    trace.diurnal_amplitude = 0.3;

    const auto specs = bench::seed_grid(factories, sim, trace, opt.seeds);
    bench::WallClock clock;
    const auto runs = exp::run_grid(specs, grid);
    const double wall_s = clock.seconds();
    const double executed = bench_registry.counter_value("exp_runs_executed_total");
    const double executed_here = executed - prev_executed;
    prev_executed = executed;

    std::printf("\n-- %d nodes (%d GPUs), %d jobs, mean interarrival %.1f s --\n",
                tier.nodes, tier.nodes * 4, tier.jobs, tier.interarrival_s);
    std::printf("  %-10s %10s %12s %14s %8s %14s %12s\n", "scheduler", "completed",
                "avg JCT (s)", "makespan (s)", "util", "events", "deployments");
    std::uint64_t events_total = 0;
    std::uint64_t decisions_total = 0;
    for (std::size_t f = 0; f < factories.size(); ++f) {
      const auto first = runs.begin() + static_cast<std::ptrdiff_t>(
                                            f * static_cast<std::size_t>(opt.seeds));
      const std::vector<bench::RunResult> slice(first, first + opt.seeds);
      const auto pooled = exp::pool_runs(slice);
      std::uint64_t events = 0;
      std::uint64_t deployments = 0;
      std::size_t completed = 0;
      for (const auto& r : slice) {
        events += r.events_fired;
        deployments += r.deployments;
        completed += r.completed;
        if (r.completed != static_cast<std::size_t>(tier.jobs)) all_complete = false;
      }
      events_total += events;
      decisions_total += deployments;
      std::printf("  %-10s %10zu %12.1f %14.1f %8.4f %14llu %12llu\n",
                  factories[f].name.c_str(), completed, pooled.summary.avg_jct,
                  pooled.summary.makespan, pooled.summary.utilization,
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(deployments));
    }
    tier_events.push_back(events_total);

    // Throughput is wall-clock and so stderr-only; a cache-served tier has
    // no execution to time, so say that instead of printing a bogus rate.
    if (executed_here >= static_cast<double>(per_tier) && wall_s > 0.0) {
      std::fprintf(stderr,
                   "[hyperscale] %5d GPUs: %.1f s wall, %.3g events/s, "
                   "%.3g decisions/s, peak RSS %.0f MiB\n",
                   tier.nodes * 4, wall_s,
                   static_cast<double>(events_total) / wall_s,
                   static_cast<double>(decisions_total) / wall_s,
                   bench::peak_rss_mib());
    } else {
      std::fprintf(stderr,
                   "[hyperscale] %5d GPUs: %.0f/%zu runs executed (rest cached); "
                   "no throughput sample\n",
                   tier.nodes * 4, executed_here, per_tier);
    }
  }

  std::printf("\nShape checks:\n");
  std::printf("  every job completes at every tier: %s\n",
              all_complete ? "OK" : "MISMATCH");
  bool events_grow = true;
  for (std::size_t t = 1; t < tier_events.size(); ++t) {
    if (tier_events[t] <= tier_events[t - 1]) events_grow = false;
  }
  std::printf("  event volume grows with cluster scale: %s\n",
              events_grow ? "OK" : "MISMATCH");
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    report.metric("events." + std::to_string(tiers[t].nodes * 4) + "gpu",
                  static_cast<double>(tier_events[t]));
  }
  report.metric("all_jobs_complete", all_complete ? 1.0 : 0.0);
  report.cache_stats_from(bench_registry);
  bench::print_cache_footer(bench_registry);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scale = "paper";
  const auto opt = exp::parse_bench_cli(
      argc, argv,
      [&scale](const char* arg) {
        if (std::strncmp(arg, "--scale=", 8) == 0) {
          scale = arg + 8;
          return true;
        }
        return false;
      },
      "  --scale=S       paper (default: Figs 17/18, 16..64 GPUs) or hyperscale\n"
      "                  (event-engine stress: 1k..10k GPUs, 10k..100k jobs)\n");
  if (scale != "paper" && scale != "hyperscale") {
    std::fprintf(stderr,
                 "fig17_scalability: bad --scale value '%s' (expected paper|hyperscale)\n",
                 scale.c_str());
    return 2;
  }
  bench::BenchReport report(
      scale == "paper" ? "fig17_scalability" : "fig17_scalability_hyperscale", opt);
  return scale == "paper" ? run_paper(opt, report) : run_hyperscale(opt, report);
}
