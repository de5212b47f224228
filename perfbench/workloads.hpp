// The benchmark's workloads, and the outcome digest that pins their results.
//
// Each workload is a fixed list of simulated runs (one scheduling policy on
// one trace, optionally under faults). All inputs derive from the workload
// seed: the trace seed and the fault seed are mixed from it, so the same
// seed always simulates the same runs. README.md records why each workload
// exists and which layer metric it is meant to move.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ones_scheduler.hpp"
#include "drl/drl_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/gandiva.hpp"
#include "sched/optimus.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "workload/trace.hpp"

namespace ones::perfbench {

/// The seed whose outcome digests are pinned in pinned_digests().
inline constexpr std::uint64_t kDefaultSeed = 1;

/// splitmix64 finaliser: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>()>;

/// A fresh instance of each of the seven policies. DRL trains offline in
/// its factory, so that cost lands in set-up like a user's first run.
inline std::vector<std::pair<std::string, SchedulerFactory>> policy_factories() {
  return {
      {"ONES", [] { return std::make_unique<core::OnesScheduler>(); }},
      {"DRL",
       [] {
         auto s = std::make_unique<drl::DrlScheduler>();
         s->train();
         return s;
       }},
      {"Tiresias", [] { return std::make_unique<sched::TiresiasScheduler>(); }},
      {"Optimus", [] { return std::make_unique<sched::OptimusScheduler>(); }},
      {"FIFO", [] { return std::make_unique<sched::FifoScheduler>(); }},
      {"SRTF*", [] { return std::make_unique<sched::SrtfOracleScheduler>(); }},
      {"Gandiva", [] { return std::make_unique<sched::GandivaScheduler>(); }},
  };
}

inline SchedulerFactory policy_factory(const std::string& name) {
  for (auto& [n, make] : policy_factories()) {
    if (n == name) return make;
  }
  return {};
}

/// One simulated run of a workload.
struct RunDef {
  std::string policy;  ///< key into policy_factories()
  sched::SimulationConfig sim;
  workload::TraceConfig trace;
};

struct Workload {
  std::string name;
  std::vector<RunDef> runs;
};

/// The paper's testbed shape: `nodes` x 4 GPUs.
inline sched::SimulationConfig cluster_of(int nodes) {
  sched::SimulationConfig c;
  c.topology.num_nodes = nodes;
  c.topology.gpus_per_node = 4;
  return c;
}

/// A Table-2 trace with Poisson arrivals (the bench::paper_trace_config
/// family).
inline workload::TraceConfig table2_trace(int jobs, double interarrival_s,
                                          std::uint64_t seed) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival_s;
  t.seed = seed;
  return t;
}

inline std::vector<std::string> workload_names() {
  return {"ones_32gpu", "fifo_2kgpu", "baselines_chaos_64gpu"};
}

/// Seed of a workload's `i`-th trace.
inline std::uint64_t trace_seed(std::uint64_t seed, int i) {
  return mix_seed(seed, 1000 + static_cast<std::uint64_t>(i));
}

/// The runs of workload `name` for `seed`; empty `runs` if the name is
/// unknown. Sizes and rates are explained in README.md.
inline Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w{name, {}};
  if (name == "ones_32gpu") {
    // ONES alone in the contended regime: the evolution step does the work.
    // One trace's cost depends strongly on its draw (the cost per decision
    // of a 24-job trace varies by about 15% between seeds), so a pass
    // simulates sixteen independent ones.
    for (int i = 0; i < 16; ++i) {
      w.runs.push_back({"ONES", cluster_of(8), table2_trace(24, 9.0, trace_seed(seed, i))});
    }
  } else if (name == "fifo_2kgpu") {
    // Hyperscale trace shape on 2,000 GPUs under FIFO: the driver, the
    // O(G) Assignment interface and the event engine do the work. Two
    // traces per pass, so the host's speed is calibrated every 2 s or so.
    for (int i = 0; i < 2; ++i) {
      RunDef r{"FIFO", cluster_of(500), table2_trace(10000, 9.0, trace_seed(seed, i))};
      r.sim.record_epoch_logs = false;
      r.trace.max_requested_gpus = 8;
      r.trace.diurnal_amplitude = 0.3;
      w.runs.push_back(std::move(r));
    }
  } else if (name == "baselines_chaos_64gpu") {
    // The six non-ONES policies under GPU, node and spot faults: many cheap
    // decisions, small G, and both recovery paths.
    sched::SimulationConfig sim = cluster_of(16);
    sim.fault.seed = mix_seed(seed, 2);
    sim.fault.gpu_mtbf_s = 15000.0;
    sim.fault.node_mtbf_s = 20000.0;
    sim.fault.spot_fraction = 0.25;
    sim.fault.reclaim_mtbf_s = 20000.0;
    // Each policy gets a trace of its own, so a pass averages over six draws.
    int i = 0;
    for (const char* policy : {"DRL", "Tiresias", "Optimus", "FIFO", "SRTF*", "Gandiva"}) {
      w.runs.push_back({policy, sim, table2_trace(1200, 12.0, trace_seed(seed, i++))});
    }
  }
  return w;
}

/// FNV-1a over a run's outcome: per-job JCTs in JobId order, deployments,
/// completed jobs, the average JCT and (with `with_events`) the events
/// fired. Doubles enter by their bit pattern, so any change in a simulated
/// result changes the digest. A trace sink adds bookkeeping events of its
/// own (elastic_resumed records), so traced runs compare without events.
inline std::uint64_t outcome_digest(const sched::ClusterSimulation& sim,
                                    const std::string& policy, bool with_events = true) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  const auto add_double = [&add](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  };
  const auto by_job = sim.metrics().jct_by_job();
  std::vector<std::pair<JobId, double>> jcts(by_job.begin(), by_job.end());
  std::sort(jcts.begin(), jcts.end());
  for (const auto& [id, jct] : jcts) {
    add(static_cast<std::uint64_t>(id));
    add_double(jct);
  }
  if (with_events) add(sim.events_fired());
  add(sim.deployments());
  add(sim.completed_jobs());
  add_double(sim.summary(policy).avg_jct);
  return h;
}

}  // namespace ones::perfbench
