// JCT-vs-joules Pareto sweep (ROADMAP item 3; DESIGN.md §10).
//
// Sweeps the ONES lambda_energy fitness blend against the PowerCap baseline
// (after Gu et al., "Energy-Efficient GPU Clusters Scheduling for Deep
// Learning") and the paper's Optimus / Tiresias / FIFO schedulers on a
// lightly-loaded 32-GPU trace, through the src/exp orchestrator (--threads /
// --seeds / --no-cache / --trace-dir / --metrics-dir). Prints one summary
// row per configuration plus the non-dominated (avg JCT, cluster joules)
// Pareto frontier. lambda_energy is not part of the serialized spec, so each
// λ's label doubles as the RunSpec `variant` cache-key tag (DESIGN.md §6);
// stdout is byte-identical for any --threads value.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sched/powercap.hpp"

using namespace ones;

int main(int argc, char** argv) {
  const auto opt = exp::parse_bench_cli(argc, argv);
  bench::BenchReport report("pareto_energy", opt);
  const auto config = bench::paper_sim_config(8);  // 32 GPUs
  // Lightly contended on purpose: with a saturated cluster every scheduler
  // burns ~peak watts for the whole makespan and the JCT/energy axes
  // collapse into one. Slack is where the tradeoff lives — energy-aware
  // configs can leave GPUs idling at gpu_idle_w instead of scaling jobs into
  // their comm-bound (watt-wasting) region.
  const auto trace_config = bench::paper_trace_config(80, 45.0);
  std::printf("JCT-vs-energy Pareto sweep: %d jobs on 32 GPUs\n", trace_config.num_jobs);
  std::printf(
      "power model: gpu %.0f-%.0f W, node base %.0f W, comm fraction %.2f "
      "(DESIGN.md #10)\n\n",
      config.power.gpu_idle_w, config.power.gpu_busy_w, config.power.node_base_w,
      config.power.comm_power_fraction);

  struct Config {
    std::string label;     ///< row label; doubles as the variant tag
    std::string scheduler; ///< RunSpec::scheduler (display name)
    std::string variant;   ///< RunSpec::variant (cache-key tag)
    exp::SchedulerFactory make;
  };
  std::vector<Config> grid_configs;
  // ONES λ sweep. λ=0 is the paper's pure-SRUF objective; every λ gets a
  // variant tag (including 0) so the sweep's cache entries never alias.
  for (const double lam : {0.0, 0.25, 1.0, 4.0}) {
    core::OnesConfig cfg;
    cfg.evolution.lambda_energy = lam;
    char label[32];
    std::snprintf(label, sizeof(label), "ONES-lam%g", lam);
    grid_configs.push_back({label, "ONES", label + 5,
                            [cfg]() -> std::unique_ptr<sched::Scheduler> {
                              return std::make_unique<core::OnesScheduler>(cfg);
                            }});
  }
  grid_configs.push_back({"PowerCap-70", "PowerCap", "cap0.7",
                          []() -> std::unique_ptr<sched::Scheduler> {
                            return std::make_unique<sched::PowerCapScheduler>();
                          }});
  grid_configs.push_back({"Optimus", "Optimus", "",
                          []() -> std::unique_ptr<sched::Scheduler> {
                            return std::make_unique<sched::OptimusScheduler>();
                          }});
  grid_configs.push_back({"Tiresias", "Tiresias", "",
                          []() -> std::unique_ptr<sched::Scheduler> {
                            return std::make_unique<sched::TiresiasScheduler>();
                          }});
  grid_configs.push_back({"FIFO", "FIFO", "",
                          []() -> std::unique_ptr<sched::Scheduler> {
                            return std::make_unique<sched::FifoScheduler>();
                          }});

  std::vector<exp::RunSpec> specs;
  for (const auto& c : grid_configs) {
    for (int k = 0; k < opt.seeds; ++k) {
      exp::RunSpec spec;
      spec.scheduler = c.scheduler;
      spec.variant = c.variant;
      spec.sim = config;
      spec.trace = trace_config;
      spec.trace.seed = trace_config.seed + static_cast<std::uint64_t>(k);
      spec.factory = c.make;
      specs.push_back(std::move(spec));
    }
  }

  const auto runs = report.run_grid(specs);
  const auto pooled = bench::pool_by_factory(runs, grid_configs.size(), opt.seeds);

  std::printf("%-14s %s\n", "config", telemetry::format_summary_header().c_str());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    std::printf("%-14s %s\n", grid_configs[i].label.c_str(),
                telemetry::format_summary_row(pooled[i].summary).c_str());
    report.metric("avg_jct." + grid_configs[i].label, pooled[i].summary.avg_jct);
    report.metric("cluster_joules." + grid_configs[i].label,
                  pooled[i].summary.cluster_joules);
  }

  // Non-dominated configurations under (avg JCT, cluster joules), both
  // minimized: a config is dominated when another is <= on both axes and
  // strictly better on at least one.
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    const auto& si = pooled[i].summary;
    bool dominated = false;
    for (std::size_t j = 0; j < pooled.size() && !dominated; ++j) {
      if (j == i) continue;
      const auto& sj = pooled[j].summary;
      dominated = sj.avg_jct <= si.avg_jct && sj.cluster_joules <= si.cluster_joules &&
                  (sj.avg_jct < si.avg_jct || sj.cluster_joules < si.cluster_joules);
    }
    if (!dominated) frontier.push_back(i);
  }
  // Print in ascending-JCT order (indices are stable for ties).
  for (std::size_t a = 0; a < frontier.size(); ++a) {
    for (std::size_t b = a + 1; b < frontier.size(); ++b) {
      const auto& sa = pooled[frontier[a]].summary;
      const auto& sb = pooled[frontier[b]].summary;
      if (sb.avg_jct < sa.avg_jct) std::swap(frontier[a], frontier[b]);
    }
  }
  std::printf("\nPareto frontier (avg JCT vs cluster energy, lower-left is better):\n");
  for (const std::size_t i : frontier) {
    const auto& s = pooled[i].summary;
    std::printf("  * %-14s avgJCT %8.1f s   energy %7.2f MJ   (%5.1f kJ/job)\n",
                grid_configs[i].label.c_str(), s.avg_jct, s.cluster_joules / 1e6,
                s.cluster_joules / 1e3 / static_cast<double>(trace_config.num_jobs));
  }
  report.metric("pareto_frontier_size", static_cast<double>(frontier.size()));
  return 0;
}
