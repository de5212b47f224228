// Quickstart: schedule a small trace on a 16-GPU cluster with ONES and with
// a FIFO baseline, and compare the outcomes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// --trace-dir=PATH, --metrics-dir=PATH and --prof-dir=PATH write each run's
// instruments as quickstart_{ones,fifo}.* (DESIGN.md §6): the .jsonl /
// Perfetto-loadable .trace.json pair (tests/trace_test.cpp pins the ONES
// JSONL digest), the .timeline.csv / .prom / .metrics.json exports, and the
// .prof.json span profile plus a stderr span table. None changes the
// simulated results.
#include <cstdio>
#include <string>

#include "core/ones_scheduler.hpp"
#include "exp/cli.hpp"
#include "prof/export.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "telemetry/metrics.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace ones;

  exp::GridOptions out;  // only its instrument output dirs are used
  for (int i = 1; i < argc; ++i) {
    if (!exp::parse_output_dir_flag(argv[i], out)) {
      std::fprintf(stderr,
                   "usage: %s [--trace-dir=PATH] [--metrics-dir=PATH] [--prof-dir=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  exp::validate_output_dirs(out, argv[0]);

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

  // Runs one policy with the requested instruments, prints its summary row
  // and the start of its "completed" line, and returns its deployments.
  const auto run = [&](sched::Scheduler& policy, const std::string& stem) {
    exp::RunInstruments instruments(out, stem);
    sched::SimulationConfig run_config = config;
    instruments.attach(run_config);
    sched::ClusterSimulation sim(run_config, trace, policy);
    sim.run();
    // The profile covers the simulation alone, so it is taken before the
    // exports (a grid run's profile also times them).
    instruments.export_profile();
    instruments.export_outputs();
    if (const prof::Profiler* profiler = instruments.profiler()) {
      std::fprintf(stderr, "[prof] %s\n%s", stem.c_str(),
                   prof::format_profile(profiler->stats()).c_str());
    }
    std::printf("%s\n", telemetry::format_summary_row(sim.summary(policy.name())).c_str());
    std::printf("  completed %zu/%d jobs", sim.completed_jobs(), trace_config.num_jobs);
    return sim.deployments();
  };

  core::OnesScheduler ones_sched;
  const auto deployments = run(ones_sched, "quickstart_ones");
  std::printf(", %llu schedule deployments, %llu evolution rounds\n",
              static_cast<unsigned long long>(deployments),
              static_cast<unsigned long long>(ones_sched.evolution_rounds()));
  sched::FifoScheduler fifo;
  run(fifo, "quickstart_fifo");
  std::printf("\n");

  if (!out.trace_dir.empty()) std::printf("traces written to %s/\n", out.trace_dir.c_str());
  if (!out.metrics_dir.empty()) {
    std::printf("metrics written to %s/\n", out.metrics_dir.c_str());
  }
  if (!out.prof_dir.empty()) std::printf("profiles written to %s/\n", out.prof_dir.c_str());
  return 0;
}
