// Figure 16 reproduction: re-configuration overhead of elastic batch size
// scaling vs checkpoint-based migration, per model.
//
// Expected shape: elastic scaling blocks the job for about 1 second; the
// checkpoint path takes tens of seconds (Gu et al. report 20-40 s), growing
// with model size.
//
// Both numbers come from the discrete-event protocol simulation (Figs 11/12
// flows), and the fast cost model used inside the trace simulations is
// cross-checked against it. The per-model blocked times are read back from
// the telemetry registry the protocol reports into (DESIGN.md §9) — the
// same instruments any instrumented run exports — rather than from the raw
// ScalingReport structs. Host-side overhead comes from prof::Profiler spans
// (engine.*, elastic.stage, elastic.checkpoint — DESIGN.md §14) instead of
// ad-hoc timers: the span table always lands in the BENCH_fig16_overhead.json
// profile section, and `--prof-dir=P` also writes `fig16_overhead.prof.json`.
// `--metrics-dir=P` exports that registry as `fig16_overhead.timeline.csv` /
// `.prom` / `.metrics.json`, and `--trace-dir=P` writes every elastic
// session's protocol milestones (one job per model, in catalog order) to
// `fig16_overhead.jsonl` / `.trace.json`.
#include <cstdio>
#include <optional>

#include "cluster/topology.hpp"
#include "elastic/cost_model.hpp"
#include "elastic/protocol.hpp"
#include "harness.hpp"
#include "model/task.hpp"
#include "sim/engine.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "trace/sink.hpp"

using namespace ones;

int main(int argc, char** argv) {
  const auto opt = exp::parse_bench_cli(argc, argv);
  bench::BenchReport report("fig16_overhead", opt);
  // Host-time spans feed the BENCH profile, as the orchestrated benches'
  // do; they never change any number on stdout.
  prof::Profiler profiler;
  std::optional<trace::RunTraceWriter> writer;
  if (!opt.grid.trace_dir.empty()) writer.emplace(opt.grid.trace_dir, "fig16_overhead");
  const cluster::Topology topo(cluster::TopologyConfig{});
  const elastic::CostConfig costs;
  const elastic::ScalingCostModel cost_model(costs);

  std::printf("Figure 16: re-configuration overhead per model (2 -> 4 workers)\n\n");
  std::printf("%-14s %12s %16s %18s %12s\n", "model", "params(MB)", "elastic blocked(s)",
              "checkpoint blocked(s)", "ratio");

  bool shape_ok = true;
  telemetry::MetricsRegistry registry;
  JobId job = 0;
  for (const auto& profile : model::builtin_profiles()) {
    elastic::ScalingRequest req;
    req.job = ++job;
    req.old_workers = {0, 1};
    req.new_workers = {0, 1, 2, 3};
    req.old_global_batch = 2 * std::min(profile.b_ref, profile.max_local_batch);
    req.new_global_batch = 2 * req.old_global_batch;

    // Elastic: event-by-event protocol simulation (background init overlap).
    sim::SimEngine engine;
    engine.set_profiler(&profiler);
    elastic::ScalingSession session(engine, profile, topo, costs, req,
                                    [](const elastic::ScalingReport&) {});
    session.set_metrics(&registry);
    session.set_profiler(&profiler);
    if (writer) session.set_phase_hook(trace::protocol_phase_hook(*writer, req.job));
    session.start();
    engine.run();

    // Checkpoint: stop-save-restart-reload.
    sim::SimEngine engine2;
    elastic::run_checkpoint_migration(engine2, profile, costs, req, &registry,
                                      &profiler);

    // Report from the registry: the protocol's last-blocked gauges hold the
    // numbers this figure plots.
    const double elastic_s = registry.gauge_value("elastic_last_blocked_seconds");
    const double ckpt_s = registry.gauge_value("checkpoint_last_blocked_seconds");
    std::printf("%-14s %12.0f %16.2f %18.2f %11.1fx\n", profile.name.c_str(),
                profile.params_bytes / 1e6, elastic_s, ckpt_s, ckpt_s / elastic_s);
    report.metric("elastic_blocked_s." + profile.name, elastic_s);
    report.metric("checkpoint_blocked_s." + profile.name, ckpt_s);
    if (elastic_s > 3.0 || ckpt_s < 15.0) shape_ok = false;
  }

  std::printf("\nRegistry totals over the sweep: %.0f elastic scalings blocking %.2f s,"
              " %.0f migrations blocking %.2f s\n",
              registry.counter_value("elastic_scalings_total"),
              registry.counter_value("elastic_blocked_seconds_total"),
              registry.counter_value("checkpoint_migrations_total"),
              registry.counter_value("checkpoint_blocked_seconds_total"));

  std::printf("\nExample elastic-scaling timeline (ResNet50, Figs 11/12 flow):\n");
  {
    const auto& profile = model::profile_by_name("ResNet50");
    elastic::ScalingRequest req;
    req.job = 1;
    req.old_workers = {0, 1};
    req.new_workers = {0, 1, 2, 3};
    req.old_global_batch = 384;
    req.new_global_batch = 768;
    sim::SimEngine engine;
    elastic::ScalingReport scaling;
    elastic::ScalingSession session(engine, profile, topo, costs, req,
                                    [&](const elastic::ScalingReport& r) { scaling = r; });
    session.start();
    engine.run();
    for (const auto& line : scaling.timeline) std::printf("  %s\n", line.c_str());
    std::printf("  => job blocked for %.2f s of a %.2f s session\n", scaling.blocked_s,
                scaling.total_s);
  }

  std::printf("\nShape check vs the paper (elastic ~1 s, checkpoint tens of s): %s\n",
              shape_ok ? "OK" : "MISMATCH");
  report.metric("shape_ok", shape_ok ? 1.0 : 0.0);
  if (!opt.grid.metrics_dir.empty()) {
    telemetry::write_metrics_files(registry, opt.grid.metrics_dir, "fig16_overhead");
  }
  if (writer) writer->close();
  report.profile().add(profiler);
  if (!opt.grid.prof_dir.empty()) {
    prof::write_profile_file(opt.grid.prof_dir, "fig16_overhead", profiler.stats());
  }
  return 0;
}
