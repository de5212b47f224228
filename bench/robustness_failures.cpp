// Chaos-grade robustness study (DESIGN.md §13; motivated by §2.1: "not all
// DL jobs can end normally, as some jobs are manually killed, some are
// early-stopped, some crashed due to errors").
//
// Sweeps deterministic fault regimes — transient GPU faults, node crashes,
// spot reclaims and the checkpoint-interval knob — against every scheduler
// through the src/exp orchestrator (--threads / --seeds / --no-cache /
// --trace-dir / --metrics-dir). Each fault point tags RunSpec::variant, and
// the FaultConfig itself is cache-key material (schema v4), so swept points
// never alias in the cache; stdout is byte-identical for any --threads.
//
// A final serial ONES run under the heavy-fault regime checks that the
// progress predictor — which skips aborted jobs' truncated histories — still
// produces proper Beta distributions for EVERY surviving job (not just the
// first one), counting degenerates.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace ones;

int main(int argc, char** argv) {
  const auto opt = exp::parse_bench_cli(argc, argv);
  bench::BenchReport report("robustness_failures", opt);
  const auto config = bench::paper_sim_config(8);  // 32 GPUs
  const auto trace_config = bench::paper_trace_config(160, 9.0);

  // Fault regimes. MTBFs are per entity: gpu_mtbf_s = 15000 over 32 GPUs is
  // one transient fault somewhere every ~470 s of sim time.
  struct FaultPoint {
    std::string label;
    cluster::FaultConfig fault;
  };
  std::vector<FaultPoint> points;
  points.push_back({"none", {}});
  {
    cluster::FaultConfig f;
    f.gpu_mtbf_s = 60000.0;
    points.push_back({"gpu-light", f});
    f.gpu_mtbf_s = 15000.0;
    points.push_back({"gpu-heavy", f});
  }
  {
    cluster::FaultConfig f;
    f.node_mtbf_s = 10000.0;  // 8 nodes: a crash every ~1250 s, 4 GPUs each
    points.push_back({"node", f});
  }
  {
    cluster::FaultConfig f;
    f.spot_fraction = 0.25;  // nodes 6..7 are preemptible
    f.reclaim_mtbf_s = 20000.0;
    points.push_back({"spot", f});
  }
  {
    // Checkpoint-interval sweep under the heavy-GPU regime: how much redone
    // work the restart path charges (elastic schedulers mostly shrink
    // instead, so the knob should separate the checkpoint-mechanism rows).
    // A restart redoes the productive time since the job's last checkpoint.
    // On this trace almost no victim has run 600 s (the default, which
    // gpu-heavy uses) when it fails, so an interval of 600 s or more repeats
    // the gpu-heavy rows; both points sit below it. The loose interval is
    // five tight ones, so a restart under it never redoes less work.
    cluster::FaultConfig f;
    f.gpu_mtbf_s = 15000.0;
    f.checkpoint_interval_s = 60.0;
    points.push_back({"ckpt-tight", f});
    f.checkpoint_interval_s = 300.0;
    points.push_back({"ckpt-loose", f});
  }

  const auto factories = bench::all_factories();
  std::vector<exp::RunSpec> specs;
  specs.reserve(points.size() * factories.size() * static_cast<std::size_t>(opt.seeds));
  for (const auto& p : points) {
    for (const auto& f : factories) {
      for (int k = 0; k < opt.seeds; ++k) {
        exp::RunSpec spec;
        spec.scheduler = f.name;
        spec.variant = "fault-" + p.label;
        spec.sim = config;
        spec.sim.fault = p.fault;
        spec.trace = trace_config;
        spec.trace.seed = trace_config.seed + static_cast<std::uint64_t>(k);
        spec.factory = f.make;
        specs.push_back(std::move(spec));
      }
    }
  }

  std::printf("Chaos sweep: %d jobs on 32 GPUs, %zu fault regimes x %zu schedulers\n",
              trace_config.num_jobs, points.size(), factories.size());
  std::printf("recovery policy: checkpoint every %.0f s (default), backoff %.0f s, "
              "max %d restarts\n\n",
              cluster::FaultConfig{}.checkpoint_interval_s,
              cluster::FaultConfig{}.retry_backoff_s, cluster::FaultConfig{}.max_restarts);

  const auto runs = report.run_grid(specs);

  std::printf("%-10s %-10s %6s %6s %10s %10s %6s\n", "regime", "scheduler", "done",
              "lost", "avgJCT", "p90JCT", "util");
  bool ones_still_ahead = true;
  bool tight_no_worse = true;
  const std::size_t per_point = factories.size() * static_cast<std::size_t>(opt.seeds);
  std::vector<std::vector<exp::RunResult>> pooled_by_point;
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const auto first = runs.begin() + static_cast<std::ptrdiff_t>(pi * per_point);
    const std::vector<exp::RunResult> slice(
        first, first + static_cast<std::ptrdiff_t>(per_point));
    auto pooled = bench::pool_by_factory(slice, factories.size(), opt.seeds);
    double ones_jct = 0.0, tiresias_jct = 0.0;
    for (std::size_t fi = 0; fi < factories.size(); ++fi) {
      const auto& s = pooled[fi].summary;
      const std::size_t jobs_total =
          static_cast<std::size_t>(trace_config.num_jobs) *
          static_cast<std::size_t>(opt.seeds);
      std::printf("%-10s %-10s %6zu %6zu %10.1f %10.1f %5.1f%%\n",
                  points[pi].label.c_str(), factories[fi].name.c_str(),
                  pooled[fi].completed, jobs_total - pooled[fi].completed, s.avg_jct,
                  s.p90_jct, 100.0 * s.utilization);
      if (factories[fi].name == "ONES") ones_jct = s.avg_jct;
      if (factories[fi].name == "Tiresias") tiresias_jct = s.avg_jct;
      report.metric("avg_jct." + factories[fi].name + "." + points[pi].label,
                    s.avg_jct);
      report.metric("completed." + factories[fi].name + "." + points[pi].label,
                    static_cast<double>(pooled[fi].completed));
    }
    if (ones_jct > tiresias_jct) ones_still_ahead = false;
    pooled_by_point.push_back(std::move(pooled));
    std::fflush(stdout);
  }
  // Indices into `points`: gpu-heavy is the same fault schedule at the
  // default interval.
  const std::size_t heavy = 2, tight = 5, loose = 6;
  auto same_row = [](const exp::RunResult& a, const exp::RunResult& b) {
    return a.completed == b.completed && a.summary.avg_jct == b.summary.avg_jct &&
           a.summary.p90_jct == b.summary.p90_jct &&
           a.summary.utilization == b.summary.utilization;
  };
  // A checkpoint point that repeats gpu-heavy for some scheduler does not
  // sweep the knob for it.
  bool intervals_bite = true;
  for (std::size_t fi = 0; fi < factories.size(); ++fi) {
    for (const std::size_t pi : {tight, loose}) {
      if (same_row(pooled_by_point[pi][fi], pooled_by_point[heavy][fi])) {
        intervals_bite = false;
      }
    }
    // Tight checkpoints lose less work than loose ones under the same fault
    // schedule for the checkpoint-mechanism baseline (the model charges no
    // per-checkpoint overhead, so shorter intervals are strictly no worse).
    if (factories[fi].name == "Tiresias" &&
        pooled_by_point[tight][fi].summary.avg_jct >
            pooled_by_point[loose][fi].summary.avg_jct) {
      tight_no_worse = false;
    }
  }

  std::printf("\nShape check: ONES stays ahead of Tiresias at every fault regime: %s\n",
              ones_still_ahead ? "OK" : "MISMATCH");
  std::printf("Shape check: tight checkpoints beat loose ones for Tiresias: %s\n",
              tight_no_worse ? "OK" : "MISMATCH");
  std::printf("Shape check: both checkpoint intervals change every scheduler's row "
              "vs gpu-heavy: %s\n",
              intervals_bite ? "OK" : "MISMATCH");

  // Predictor sanity under chaos: abnormal endings from BOTH sources (trace
  // kills and retries-exhausted aborts), then every surviving job must still
  // predict a proper Beta distribution (alpha, beta >= 1).
  {
    auto chaos_config = config;
    chaos_config.fault.gpu_mtbf_s = 15000.0;
    auto tc = trace_config;
    tc.abnormal_fraction = 0.1;
    tc.abnormal_mean_lifetime_s = 240.0;
    const auto trace = workload::generate_trace(tc);
    core::OnesScheduler s;
    sched::ClusterSimulation sim(chaos_config, trace, s);
    sim.run();
    std::size_t survivors = 0, degenerate = 0;
    if (s.predictor().trained()) {
      for (const auto& spec : trace) {
        const auto& v = sim.job_view(spec.id);
        if (v.aborted) continue;
        ++survivors;
        const auto dist = s.predictor().predict(v);
        if (!(dist.alpha() >= 1.0 && dist.beta() >= 1.0)) ++degenerate;
      }
    }
    std::printf("\nPredictor sanity under faults: %zu survivors checked, "
                "%zu degenerate distributions: %s\n",
                survivors, degenerate,
                s.predictor().trained() && degenerate == 0 ? "OK" : "MISMATCH");
  }

  report.metric("ones_still_ahead", ones_still_ahead ? 1.0 : 0.0);
  return 0;
}
