// Ablation study of the design choices DESIGN.md calls out (not a paper
// figure — §3's design rationale, quantified):
//
//   * evolution operators: crossover / mutation / reorder off,
//   * the Beta-progress predictor off (rho fixed at 1/2),
//   * the elastic scaling mechanism replaced by checkpoint migration,
//   * LR linear scaling off in the substrate (the §3.3.2 motivation).
//
// Run on a 32-GPU cluster with a contended trace (smaller than Fig 15 to
// keep the 7-variant sweep quick), through the src/exp orchestrator
// (--threads / --seeds / --no-cache). Each variant's OnesConfig tweak is
// not part of the serialized spec, so its label doubles as the RunSpec
// `variant` cache-key tag.
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.hpp"

using namespace ones;

namespace {

/// ONES with the checkpoint mechanism instead of elastic scaling.
class CheckpointOnes : public core::OnesScheduler {
 public:
  explicit CheckpointOnes(const core::OnesConfig& cfg) : core::OnesScheduler(cfg) {}
  std::string name() const override { return "ONES-ckpt"; }
  sched::ScalingMechanism mechanism() const override {
    return sched::ScalingMechanism::Checkpoint;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = exp::parse_bench_cli(argc, argv);
  bench::BenchReport report("ablation_ones", opt);
  const auto config = bench::paper_sim_config(8);  // 32 GPUs
  const auto trace_config = bench::paper_trace_config(160, 9.0);
  std::printf("ONES ablations: %d jobs on 32 GPUs\n\n", trace_config.num_jobs);
  std::printf("%-16s %s\n", "variant", telemetry::format_summary_header().c_str());

  struct Variant {
    const char* label;
    core::OnesConfig cfg;
    bool checkpoint = false;
  };
  std::vector<Variant> variants;
  variants.push_back({"full", {}, false});
  {
    Variant v{"no-crossover", {}, false};
    v.cfg.evolution.use_crossover = false;
    variants.push_back(v);
  }
  {
    Variant v{"no-mutation", {}, false};
    v.cfg.evolution.use_mutation = false;
    variants.push_back(v);
  }
  {
    Variant v{"no-reorder", {}, false};
    v.cfg.evolution.use_reorder = false;
    variants.push_back(v);
  }
  {
    Variant v{"no-predictor", {}, false};
    v.cfg.use_predictor = false;
    variants.push_back(v);
  }
  variants.push_back({"ckpt-mechanism", {}, true});

  // One grid row per (variant, seed); the substrate-side no-lr-scaling
  // ablation rides along as an extra row with a modified sim config.
  std::vector<bench::NamedFactory> factories;
  std::vector<exp::RunSpec> specs;
  for (const auto& variant : variants) {
    const auto cfg = variant.cfg;
    exp::SchedulerFactory make;
    if (variant.checkpoint) {
      make = [cfg]() -> std::unique_ptr<sched::Scheduler> {
        return std::make_unique<CheckpointOnes>(cfg);
      };
    } else {
      make = [cfg]() -> std::unique_ptr<sched::Scheduler> {
        return std::make_unique<core::OnesScheduler>(cfg);
      };
    }
    for (int k = 0; k < opt.seeds; ++k) {
      exp::RunSpec spec;
      spec.scheduler = variant.checkpoint ? "ONES-ckpt" : "ONES";
      spec.variant = variant.label;
      spec.sim = config;
      spec.trace = trace_config;
      spec.trace.seed = trace_config.seed + static_cast<std::uint64_t>(k);
      spec.factory = make;
      specs.push_back(std::move(spec));
    }
  }
  {
    auto no_lr_config = config;
    no_lr_config.convergence.lr_linear_scaling = false;
    for (int k = 0; k < opt.seeds; ++k) {
      exp::RunSpec spec;
      spec.scheduler = "ONES";
      spec.variant = "no-lr-scaling";
      spec.sim = no_lr_config;
      spec.trace = trace_config;
      spec.trace.seed = trace_config.seed + static_cast<std::uint64_t>(k);
      spec.factory = [] { return std::make_unique<core::OnesScheduler>(); };
      specs.push_back(std::move(spec));
    }
  }

  const auto runs = report.run_grid(specs);
  const std::size_t n_rows = variants.size() + 1;
  const auto pooled = bench::pool_by_factory(runs, n_rows, opt.seeds);

  std::vector<const char*> labels;
  for (const auto& variant : variants) labels.push_back(variant.label);
  labels.push_back("no-lr-scaling");

  double full_jct = 0.0;
  std::vector<std::pair<std::string, double>> rows;
  for (std::size_t i = 0; i < n_rows; ++i) {
    std::printf("%-16s %s\n", labels[i],
                telemetry::format_summary_row(pooled[i].summary).c_str());
    if (std::string(labels[i]) == "full") full_jct = pooled[i].summary.avg_jct;
    rows.emplace_back(labels[i], pooled[i].summary.avg_jct);
    report.metric(std::string("avg_jct.") + labels[i], pooled[i].summary.avg_jct);
  }

  std::printf("\nAverage-JCT change vs the full configuration:\n");
  for (const auto& [label, jct] : rows) {
    if (label == "full") continue;
    std::printf("  %-16s %+7.1f%%\n", label.c_str(), 100.0 * (jct - full_jct) / full_jct);
  }
  return 0;
}
