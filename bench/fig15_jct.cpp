// Figure 15 reproduction (all nine panels): scheduling performance of ONES
// vs DRL / Tiresias / Optimus on the 64-GPU cluster with the Table 2 trace.
//
//   (a,b,c) average JCT / execution time / queuing time,
//   (d,e,f) box-plot distributions,
//   (g,h,i) cumulative frequency curves.
//
// FIFO and the SRTF oracle are included as extra reference points (they are
// not in the paper's figure).
//
// Runs through the src/exp orchestrator: --threads=N fans the
// (scheduler x seed) grid over N workers with byte-identical stdout,
// --seeds=K pools K trace seeds per scheduler, and a warm .ones-cache/
// makes re-runs near-instant (--no-cache bypasses it).
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"

using namespace ones;

namespace {

void print_panel(const char* title, const std::vector<bench::RunResult>& results,
                 std::vector<double> bench::RunResult::* series) {
  std::printf("\n%s\n", title);
  bench::print_rule();
  std::printf("  %-10s %10s | box: %s\n", "scheduler", "mean", "min/q1/median/q3/max");
  for (const auto& r : results) {
    const auto b = stats::box_stats(r.*series);
    std::printf("  %-10s %10.1f | %.0f / %.0f / %.0f / %.0f / %.0f  (outliers: %zu)\n",
                r.summary.scheduler.c_str(), b.mean, b.min, b.q1, b.median, b.q3, b.max,
                b.outliers.size());
  }

  std::printf("\n  cumulative frequency (fraction of jobs <= t seconds):\n");
  std::printf("  %-10s", "t(s)");
  for (const auto& r : results) std::printf(" %9s", r.summary.scheduler.c_str());
  std::printf("\n");
  for (double t : {50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0}) {
    std::printf("  %-10.0f", t);
    for (const auto& r : results) {
      const auto e = stats::ecdf(r.*series);
      std::printf(" %8.1f%%", 100.0 * e.at(t));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = exp::parse_bench_cli(argc, argv);
  bench::BenchReport report("fig15_jct", opt);
  const auto config = bench::paper_sim_config();
  const auto trace_config = bench::paper_trace_config();
  std::printf("Figure 15: scheduling performance, %d jobs on %d GPUs\n",
              trace_config.num_jobs,
              config.topology.num_nodes * config.topology.gpus_per_node);

  const auto factories = bench::all_factories();
  const auto specs = bench::seed_grid(factories, config, trace_config, opt.seeds);
  const auto runs = report.run_grid(specs);
  const auto results = bench::pool_by_factory(runs, factories.size(), opt.seeds);

  std::printf("\nPanel (a/b/c): averages\n");
  bench::print_rule();
  std::printf("%s\n", telemetry::format_summary_header().c_str());
  for (const auto& r : results) {
    std::printf("%s\n", telemetry::format_summary_row(r.summary).c_str());
  }

  const double ones_jct = results[0].summary.avg_jct;
  std::printf("\nONES average-JCT reduction vs each baseline, with 95%% bootstrap CIs\n"
              "(paper: DRL 26.9%%, Tiresias 45.6%%, Optimus 41.7%%):\n");
  for (std::size_t i = 1; i < 4; ++i) {
    // Pair per-job JCTs by job id, per seed, for the bootstrap.
    std::vector<double> ones_paired, base_paired;
    bench::paired_jcts(runs, 0, i, opt.seeds, ones_paired, base_paired);
    const auto ci = stats::bootstrap_relative_reduction_ci(ones_paired, base_paired);
    const double base = results[i].summary.avg_jct;
    std::printf("  vs %-9s %6.1f%%   [%.1f%%, %.1f%%]\n",
                results[i].summary.scheduler.c_str(),
                100.0 * (base - ones_jct) / base, 100.0 * ci.lo, 100.0 * ci.hi);
  }

  print_panel("Panel (d/g): job completion time distribution", results,
              &bench::RunResult::jcts);
  print_panel("Panel (e/h): execution time distribution", results,
              &bench::RunResult::exec_times);
  print_panel("Panel (f/i): queuing time distribution", results,
              &bench::RunResult::queue_times);

  // The paper's headline distribution observation.
  const auto ones_ecdf = stats::ecdf(results[0].jcts);
  std::printf("\nShape checks vs the paper:\n");
  bool ordering = true;
  for (std::size_t i = 1; i < 4; ++i) {
    if (results[i].summary.avg_jct <= ones_jct) ordering = false;
  }
  std::printf("  ONES has the smallest average JCT of the paper's four: %s\n",
              ordering ? "OK" : "MISMATCH");
  std::printf("  ONES completes a larger fraction of jobs early than every baseline\n");
  for (std::size_t i = 1; i < 4; ++i) {
    const auto base_ecdf = stats::ecdf(results[i].jcts);
    const double t = 200.0;
    std::printf("    <=200s: ONES %.0f%% vs %s %.0f%%: %s\n", 100.0 * ones_ecdf.at(t),
                results[i].summary.scheduler.c_str(), 100.0 * base_ecdf.at(t),
                ones_ecdf.at(t) >= base_ecdf.at(t) ? "OK" : "MISMATCH");
  }
  for (const auto& r : results) {
    const std::string& s = r.summary.scheduler;
    report.metric("avg_jct." + s, r.summary.avg_jct);
    report.metric("avg_exec." + s, r.summary.avg_exec);
    report.metric("avg_queue." + s, r.summary.avg_queue);
    report.metric("p90_jct." + s, r.summary.p90_jct);
    report.metric("makespan." + s, r.summary.makespan);
    report.metric("utilization." + s, r.summary.utilization);
  }
  return 0;
}
