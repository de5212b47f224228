// Results export: run a scheduler comparison and write machine-readable
// artifacts — per-job CSVs, JCT ECDF CSVs, a trace CSV and a JSON summary —
// ready for external plotting. Demonstrates telemetry/report.hpp and
// workload/trace_io.hpp end to end.
//
// Usage: export_results [output_dir]   (default: ./ones_results)
#include <cstdio>
#include <filesystem>
#include <ostream>

#include "common/atomic_file.hpp"
#include "core/ones_scheduler.hpp"
#include "sched/simulation.hpp"
#include "sched/tiresias.hpp"
#include "telemetry/report.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

using namespace ones;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "ones_results";
  std::filesystem::create_directories(out_dir);

  workload::TraceConfig tc;
  tc.num_jobs = 48;
  tc.mean_interarrival_s = 8.0;
  tc.seed = 2027;
  const auto trace = workload::generate_trace(tc);
  workload::save_trace(out_dir + "/trace.csv", trace);

  sched::SimulationConfig config;
  config.topology.num_nodes = 4;

  std::vector<telemetry::Summary> summaries;
  auto run_and_export = [&](sched::Scheduler& s, const std::string& tag) {
    sched::ClusterSimulation sim(config, trace, s);
    sim.run();
    summaries.push_back(sim.summary(s.name()));

    common::write_file_atomically(out_dir + "/jobs_" + tag + ".csv", [&](std::ostream& out) {
      telemetry::write_jobs_csv(out, sim.metrics());
    });
    common::write_file_atomically(out_dir + "/jct_ecdf_" + tag + ".csv",
                                  [&](std::ostream& out) {
                                    telemetry::write_ecdf_csv(out, sim.metrics().jcts(), "jct_s");
                                  });

    std::printf("  %-10s avg JCT %8.1f s  ->  jobs_%s.csv, jct_ecdf_%s.csv\n",
                s.name().c_str(), summaries.back().avg_jct, tag.c_str(), tag.c_str());
  };

  std::printf("Exporting run artifacts to %s/\n", out_dir.c_str());
  {
    core::OnesScheduler s;
    run_and_export(s, "ones");
  }
  {
    sched::TiresiasScheduler s;
    run_and_export(s, "tiresias");
  }

  common::write_file_atomically(out_dir + "/summary.json", [&](std::ostream& out) {
    out << telemetry::summaries_to_json(summaries) << '\n';
  });
  std::printf("  summary.json + trace.csv written\n");
  std::printf("\nReload the exact trace later with workload::load_trace(\"%s/trace.csv\")\n",
              out_dir.c_str());
  return 0;
}
