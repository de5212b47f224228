// Table 4 reproduction: Wilcoxon significance tests of per-job JCT,
// ONES vs each baseline, on the shared Figure 15 trace.
//
// Following the paper: a two-sided test (H0: the two schedulers' JCTs are
// equivalent — rejected when p << 0.05) and a one-sided "negative" test
// reported such that a p value near 1 supports "ONES's JCTs are smaller".
//
// Runs through the src/exp orchestrator (--threads / --seeds / --no-cache);
// with --seeds=K the (ONES, baseline) pairs are matched by job id within
// each seed and pooled across seeds, which is the many-seed sweep a paired
// significance test actually wants.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "stats/wilcoxon.hpp"

using namespace ones;

int main(int argc, char** argv) {
  const auto opt = exp::parse_bench_cli(argc, argv);
  bench::BenchReport report("table4_wilcoxon", opt);
  const auto config = bench::paper_sim_config();
  const auto trace_config = bench::paper_trace_config();
  std::printf("Table 4: Wilcoxon significance tests on per-job JCT (%d paired jobs"
              " x %d seed%s)\n",
              trace_config.num_jobs, opt.seeds, opt.seeds == 1 ? "" : "s");

  const auto factories = bench::paper_factories();
  const auto specs = bench::seed_grid(factories, config, trace_config, opt.seeds);
  const auto runs = report.run_grid(specs);
  const auto results = bench::pool_by_factory(runs, factories.size(), opt.seeds);

  std::printf("\n%-14s %24s %30s\n", "", "p value (two-sided)", "p value (one-sided negative)");
  bool all_significant = true;
  for (std::size_t i = 1; i < results.size(); ++i) {
    std::vector<double> x, y;
    bench::paired_jcts(runs, 0, i, opt.seeds, x, y);
    const auto res = stats::wilcoxon_signed_rank(x, y);
    std::printf("vs. %-10s %24.3e %30.5f\n", results[i].summary.scheduler.c_str(),
                res.p_two_sided, res.p_greater);
    const std::string& s = results[i].summary.scheduler;
    report.metric("p_two_sided." + s, res.p_two_sided);
    report.metric("p_greater." + s, res.p_greater);
    if (res.p_two_sided >= 0.05 || res.p_greater <= 0.95) all_significant = false;
  }
  report.metric("all_significant", all_significant ? 1.0 : 0.0);

  std::printf("\nShape check vs the paper (two-sided p << 0.05 and one-sided\n"
              "negative p near 1 for every baseline): %s\n",
              all_significant ? "OK" : "MISMATCH");
  return 0;
}
