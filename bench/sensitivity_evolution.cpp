// Sensitivity of ONES to its evolutionary-search hyper-parameters:
// population size K (the paper suggests K = cluster size) and mutation rate
// theta. Run on a 16-GPU contended trace to keep the sweep quick.
#include <cstdio>

#include "harness.hpp"

using namespace ones;

namespace {

double run_with(const core::OnesConfig& cfg, const sched::SimulationConfig& config,
                const std::vector<workload::JobSpec>& trace, const char* label) {
  core::OnesScheduler s(cfg);
  const auto r = bench::run_one(config, trace, s);
  std::printf("  %-22s avgJCT %8.1f  avgExec %8.1f  avgQueue %8.1f\n", label,
              r.summary.avg_jct, r.summary.avg_exec, r.summary.avg_queue);
  std::fflush(stdout);
  return r.summary.avg_jct;
}

}  // namespace

int main() {
  ::ones::bench::ScopedTimer bench_timer("sensitivity_evolution");
  const auto config = bench::paper_sim_config(4);  // 16 GPUs
  const auto trace = workload::generate_trace(bench::paper_trace_config(120, 14.0));
  std::printf("Evolution hyper-parameter sensitivity: %zu jobs on 16 GPUs\n",
              trace.size());

  std::printf("\nPopulation size K (paper suggests K = cluster size = 16):\n");
  double default_jct = 0.0;
  for (std::size_t k : {4u, 8u, 16u, 32u}) {
    core::OnesConfig cfg;
    cfg.evolution.population_size = k;
    char label[32];
    std::snprintf(label, sizeof(label), "K = %zu%s", k, k == 16 ? " (= cluster)" : "");
    const double jct = run_with(cfg, config, trace, label);
    if (k == 16) default_jct = jct;
  }

  std::printf("\nMutation rate theta:\n");
  for (double theta : {0.05, 0.2, 0.5}) {
    core::OnesConfig cfg;
    cfg.evolution.mutation_rate = theta;
    char label[32];
    std::snprintf(label, sizeof(label), "theta = %.2f", theta);
    run_with(cfg, config, trace, label);
  }

  std::printf("\n(The paper's K = cluster-size default scored %.1f s; the sweep shows\n"
              "how sensitive that choice is on this trace.)\n",
              default_jct);
  return 0;
}
