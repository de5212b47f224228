// Quickstart: schedule a small trace on a 16-GPU cluster with ONES and with
// a FIFO baseline, and compare the outcomes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --trace-dir=PATH to also write a structured trace per run
// (quickstart_ones.jsonl / .trace.json and quickstart_fifo.jsonl /
// .trace.json; the .trace.json files load in Perfetto or chrome://tracing).
// tests/trace_test.cpp pins a golden digest of the ONES JSONL stream.
//
// Pass --metrics-dir=PATH to also export each run's metrics registry
// (quickstart_ones.timeline.csv / .prom / .metrics.json and the same for
// FIFO — DESIGN.md §9).
//
// Pass --prof-dir=PATH to also collect host-time profiler spans per run
// (quickstart_ones.prof.json / quickstart_fifo.prof.json and a stderr span
// table with p50/p90/max per span — DESIGN.md §14); with --trace-dir the
// spans additionally merge into the .trace.json as a wall-clock track. None
// of the flags changes the simulated results.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/ones_scheduler.hpp"
#include "prof/export.hpp"
#include "prof/profiler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace ones;

  std::string trace_dir;
  std::string metrics_dir;
  std::string prof_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-dir=", 12) == 0) {
      trace_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-dir=", 14) == 0) {
      metrics_dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--prof-dir=", 11) == 0) {
      prof_dir = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-dir=PATH] [--metrics-dir=PATH] [--prof-dir=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // A 4-node x 4-GPU cluster (16 GPUs) and 24 jobs arriving as a Poisson
  // process, drawn from the paper's Table 2 workload catalog.
  sched::SimulationConfig config;
  config.topology.num_nodes = 4;

  workload::TraceConfig trace_config;
  trace_config.num_jobs = 24;
  trace_config.mean_interarrival_s = 45.0;
  trace_config.seed = 7;
  const auto trace = workload::generate_trace(trace_config);

  std::printf("Trace: %d jobs on %d GPUs\n", trace_config.num_jobs,
              config.topology.num_nodes * config.topology.gpus_per_node);
  std::printf("%s\n", telemetry::format_summary_header().c_str());

  const auto make_writer = [&trace_dir](const char* stem) {
    return trace_dir.empty()
               ? nullptr
               : std::make_unique<trace::RunTraceWriter>(trace_dir, stem);
  };

  {
    const auto writer = make_writer("quickstart_ones");
    auto traced_config = config;
    traced_config.trace_sink = writer.get();
    telemetry::MetricsRegistry registry;
    if (!metrics_dir.empty()) traced_config.metrics = &registry;
    std::optional<prof::Profiler> profiler;
    if (!prof_dir.empty()) {
      profiler.emplace();
      if (writer) profiler->enable_timeline();
      traced_config.profiler = &*profiler;
    }
    core::OnesScheduler ones_sched;
    sched::ClusterSimulation sim(traced_config, trace, ones_sched);
    sim.run();
    if (!metrics_dir.empty()) {
      telemetry::write_metrics_files(registry, metrics_dir, "quickstart_ones");
    }
    if (profiler) {
      // Merge the host-span track into the Chrome trace only; the golden
      // JSONL digest never sees profiler output.
      if (writer) {
        for (const auto& ev : prof::chrome_span_events(*profiler)) {
          writer->chrome_raw_event(ev);
        }
      }
      prof::write_profile_file(prof_dir, "quickstart_ones", profiler->stats());
      std::fprintf(stderr, "[prof] quickstart_ones\n%s",
                   prof::format_profile(profiler->stats()).c_str());
    }
    const auto s = sim.summary("ONES");
    std::printf("%s\n", telemetry::format_summary_row(s).c_str());
    std::printf("  completed %zu/%d jobs, %llu schedule deployments, %llu evolution rounds\n",
                sim.completed_jobs(), trace_config.num_jobs,
                static_cast<unsigned long long>(sim.deployments()),
                static_cast<unsigned long long>(ones_sched.evolution_rounds()));
  }
  {
    const auto writer = make_writer("quickstart_fifo");
    auto traced_config = config;
    traced_config.trace_sink = writer.get();
    telemetry::MetricsRegistry registry;
    if (!metrics_dir.empty()) traced_config.metrics = &registry;
    std::optional<prof::Profiler> profiler;
    if (!prof_dir.empty()) {
      profiler.emplace();
      if (writer) profiler->enable_timeline();
      traced_config.profiler = &*profiler;
    }
    sched::FifoScheduler fifo;
    sched::ClusterSimulation sim(traced_config, trace, fifo);
    sim.run();
    if (!metrics_dir.empty()) {
      telemetry::write_metrics_files(registry, metrics_dir, "quickstart_fifo");
    }
    if (profiler) {
      if (writer) {
        for (const auto& ev : prof::chrome_span_events(*profiler)) {
          writer->chrome_raw_event(ev);
        }
      }
      prof::write_profile_file(prof_dir, "quickstart_fifo", profiler->stats());
      std::fprintf(stderr, "[prof] quickstart_fifo\n%s",
                   prof::format_profile(profiler->stats()).c_str());
    }
    const auto s = sim.summary("FIFO");
    std::printf("%s\n", telemetry::format_summary_row(s).c_str());
    std::printf("  completed %zu/%d jobs\n", sim.completed_jobs(), trace_config.num_jobs);
  }
  if (!trace_dir.empty()) {
    std::printf("traces written to %s/\n", trace_dir.c_str());
  }
  if (!metrics_dir.empty()) {
    std::printf("metrics written to %s/\n", metrics_dir.c_str());
  }
  if (!prof_dir.empty()) {
    std::printf("profiles written to %s/\n", prof_dir.c_str());
  }
  return 0;
}
