// Search-strategy comparison (paper §3.2's argument, quantified):
// population-based evolutionary search vs single-solution simulated
// annealing vs refresh-only (random) search — all over the SAME genome
// space, SRUF score, batch-limit policies, predictor and elastic mechanism,
// so the only difference is the search strategy.
#include <cstdio>

#include "core/annealing.hpp"
#include "harness.hpp"

using namespace ones;

int main() {
  ::ones::bench::ScopedTimer bench_timer("search_strategies");
  const auto config = bench::paper_sim_config(8);  // 32 GPUs
  const auto trace = workload::generate_trace(bench::paper_trace_config(160, 9.0));
  std::printf("Search strategies over the ONES genome space: %zu jobs on 32 GPUs\n\n",
              trace.size());
  std::printf("%-14s %s\n", "strategy", telemetry::format_summary_header().c_str());

  double evolution_jct = 0.0, annealing_jct = 0.0, random_jct = 0.0;
  {
    core::OnesScheduler s;  // population-based evolution (the paper)
    const auto r = exp::run_simulation(config, trace, s);
    std::printf("%-14s %s\n", "evolution", telemetry::format_summary_row(r.summary).c_str());
    std::fflush(stdout);
    evolution_jct = r.summary.avg_jct;
  }
  {
    core::AnnealingScheduler s;  // Metropolis walk, mutation neighborhood
    const auto r = exp::run_simulation(config, trace, s);
    std::printf("%-14s %s\n", "annealing", telemetry::format_summary_row(r.summary).c_str());
    std::printf("               (proposals %llu, accepted %.0f%%, final T %.1f)\n",
                static_cast<unsigned long long>(s.proposals()),
                100.0 * static_cast<double>(s.accepted()) /
                    static_cast<double>(std::max<std::uint64_t>(s.proposals(), 1)),
                s.temperature());
    std::fflush(stdout);
    annealing_jct = r.summary.avg_jct;
  }
  {
    // Refresh-only search: no crossover, no mutation — candidates differ
    // only through the randomized refresh/fill, i.e. (guided) random search.
    core::OnesConfig cfg;
    cfg.evolution.use_crossover = false;
    cfg.evolution.use_mutation = false;
    core::OnesScheduler s(cfg);
    const auto r = exp::run_simulation(config, trace, s);
    std::printf("%-14s %s\n", "random", telemetry::format_summary_row(r.summary).c_str());
    random_jct = r.summary.avg_jct;
  }

  std::printf("\nAverage-JCT penalty vs evolutionary search:\n");
  std::printf("  annealing %+6.1f%%\n", 100.0 * (annealing_jct - evolution_jct) / evolution_jct);
  std::printf("  random    %+6.1f%%\n", 100.0 * (random_jct - evolution_jct) / evolution_jct);
  std::printf("\nShape check vs the paper (evolution is the strongest search): %s\n",
              (evolution_jct <= annealing_jct * 1.02 && evolution_jct <= random_jct * 1.02)
                  ? "OK"
                  : "MISMATCH");
  return 0;
}
