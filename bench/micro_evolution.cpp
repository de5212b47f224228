// Microbenchmarks (google-benchmark) for the hot paths of ONES: the
// evolution operators, genome copies and builds, the gang placer, SRUF
// scoring, predictor fitting and the simulation event loop. The paper
// argues evolutionary search has "relatively fast iterative speed" (§3.2) —
// these benches quantify it for this implementation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/evolution.hpp"
#include "core/ones_scheduler.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "micro_report.hpp"
#include "predict/progress_predictor.hpp"
#include "sched/fifo.hpp"
#include "sched/placement.hpp"
#include "sched/simulation.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"

namespace {

using namespace ones;

/// Synthetic cluster state with `jobs` active jobs on a cluster of
/// `nodes` x 4 GPUs.
struct World {
  cluster::Topology topo;
  cluster::Assignment live;
  sched::ThroughputOracle oracle;
  sched::ClusterState state;
  core::BatchLimitManager limits;
  std::vector<std::unique_ptr<sched::JobView>> views;

  World(int nodes, int jobs)
      : topo([&] {
          cluster::TopologyConfig c;
          c.num_nodes = nodes;
          return c;
        }()),
        live(topo.total_gpus()),
        oracle(topo) {
    const char* models[] = {"ResNet18", "GoogleNet", "VGG16-CIFAR", "AlexNet"};
    for (int j = 0; j < jobs; ++j) {
      auto v = std::make_unique<sched::JobView>();
      v->spec.id = j;
      v->spec.variant = {models[j % 4], "bench", 20000, 10};
      v->profile = &model::profile_by_name(models[j % 4]);
      v->spec.requested_gpus = 1 + j % 2;
      v->spec.requested_batch = v->profile->b_ref;
      v->status = sched::JobStatus::Waiting;
      v->epochs_completed = 1 + j % 5;
      v->samples_processed = 20000.0 * v->epochs_completed;
      v->exec_time_s = 20.0 * v->epochs_completed;
      v->init_loss = v->profile->init_loss;
      v->train_loss = 1.0;
      v->val_accuracy = 0.5;
      views.push_back(std::move(v));
      limits.on_job_arrival(*views.back(), 5.0 * j);
    }
    state.now = 1000.0;
    state.topology = &topo;
    state.current = &live;
    state.oracle = &oracle;
    for (auto& v : views) state.admit(*v);
  }
};

void BM_EvolutionStep(benchmark::State& bench_state) {
  const int nodes = static_cast<int>(bench_state.range(0));
  World w(nodes, nodes * 6);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::Evolution evo(core::EvolutionConfig{});
  evo.ensure_population(ctx);
  for (auto _ : bench_state) {
    evo.step(ctx);
  }
  bench_state.SetLabel(std::to_string(nodes * 4) + " GPUs");
}
BENCHMARK(BM_EvolutionStep)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// One fill_idle call on a candidate with at least half its GPUs idle, so
/// the call makes many draws (each evicted job is a resume option). The
/// timed loop includes one O(G) copy of the candidate.
void BM_FillIdle(benchmark::State& bench_state) {
  const int nodes = static_cast<int>(bench_state.range(0));
  World w(nodes, nodes * 6);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::Evolution evo(core::EvolutionConfig{});
  cluster::Assignment half(w.topo.total_gpus());
  evo.refresh(half, ctx);
  const auto running = half.running_jobs();
  const std::vector<JobId> jobs(running.begin(), running.end());
  for (const JobId j : jobs) {
    if (2 * half.idle_count() >= half.num_gpus()) break;
    half.evict(j);
  }
  for (auto _ : bench_state) {
    cluster::Assignment cand = half;
    evo.fill_idle(cand, ctx);
    benchmark::DoNotOptimize(cand);
  }
  bench_state.SetLabel(std::to_string(nodes * 4) + " GPUs");
}
BENCHMARK(BM_FillIdle)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

/// A genome-like schedule: `jobs` jobs in adjacent runs of equal width over
/// 90% of `gpus` GPUs, the rest idle.
cluster::Assignment packed_schedule(int gpus, int jobs) {
  std::vector<cluster::Slot> slots(static_cast<std::size_t>(gpus));
  const int width = std::max(1, gpus * 9 / 10 / jobs);
  for (int j = 0; j < jobs; ++j) {
    for (int i = 0; i < width && j * width + i < gpus; ++i) {
      slots[static_cast<std::size_t>(j * width + i)] = cluster::Slot{j, 32};
    }
  }
  return cluster::Assignment::from_slots(std::move(slots));
}

/// Copying one genome, as every decision and every offspring does. Args:
/// GPUs and placed jobs, at the sizes perfbench's workloads reach.
void BM_AssignmentCopy(benchmark::State& bench_state) {
  const auto a = packed_schedule(static_cast<int>(bench_state.range(0)),
                                 static_cast<int>(bench_state.range(1)));
  for (auto _ : bench_state) {
    cluster::Assignment copy = a;
    benchmark::DoNotOptimize(copy);
  }
  bench_state.SetLabel(std::to_string(bench_state.range(0)) + " GPUs, " +
                       std::to_string(a.running_jobs().size()) + " jobs");
}
BENCHMARK(BM_AssignmentCopy)
    ->Args({32, 24})
    ->Args({128, 96})
    ->Args({2000, 450})
    ->Unit(benchmark::kMicrosecond);

/// Building a genome from a slot array (crossover children, reorder). The
/// timed loop includes the copy of the slot array that from_slots consumes.
void BM_FromSlots(benchmark::State& bench_state) {
  const auto a = packed_schedule(static_cast<int>(bench_state.range(0)),
                                 static_cast<int>(bench_state.range(1)));
  std::vector<cluster::Slot> slots;
  for (GpuId g = 0; g < a.num_gpus(); ++g) slots.push_back(a.slot(g));
  for (auto _ : bench_state) {
    auto built = cluster::Assignment::from_slots(slots);
    benchmark::DoNotOptimize(built);
  }
  bench_state.SetLabel(std::to_string(bench_state.range(0)) + " GPUs, " +
                       std::to_string(a.running_jobs().size()) + " jobs");
}
BENCHMARK(BM_FromSlots)
    ->Args({32, 24})
    ->Args({128, 96})
    ->Args({2000, 450})
    ->Unit(benchmark::kMicrosecond);

/// The gang placer on 4-GPU nodes with about a third of the GPUs idle in
/// scattered holes. Args: GPUs and the request. A request of 2 fits on one
/// node (best fit); a request of 8 never does (spill).
void BM_PickIdleGpus(benchmark::State& bench_state) {
  const int gpus = static_cast<int>(bench_state.range(0));
  const int count = static_cast<int>(bench_state.range(1));
  cluster::TopologyConfig tc;
  tc.num_nodes = gpus / tc.gpus_per_node;
  const cluster::Topology topo(tc);
  Rng rng(7);
  std::vector<cluster::Slot> slots(static_cast<std::size_t>(gpus));
  for (GpuId g = 0; g < gpus; ++g) {
    if (rng.bernoulli(0.65)) slots[static_cast<std::size_t>(g)] = cluster::Slot{g / 3, 32};
  }
  const auto a = cluster::Assignment::from_slots(std::move(slots));
  for (auto _ : bench_state) {
    auto picked = sched::pick_idle_gpus(a, topo, count);
    benchmark::DoNotOptimize(picked);
  }
  bench_state.SetLabel(std::to_string(gpus) + " GPUs, " + std::to_string(a.idle_count()) +
                       " idle");
}
BENCHMARK(BM_PickIdleGpus)
    ->Args({2000, 2})
    ->Args({2000, 8})
    ->Args({10000, 2})
    ->Args({10000, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_Refresh(benchmark::State& bench_state) {
  World w(8, 48);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::Evolution evo(core::EvolutionConfig{});
  cluster::Assignment cand(w.topo.total_gpus());
  for (auto _ : bench_state) {
    evo.refresh(cand, ctx);
    benchmark::DoNotOptimize(cand);
  }
}
BENCHMARK(BM_Refresh)->Unit(benchmark::kMicrosecond);

void BM_CrossoverAndRepair(benchmark::State& bench_state) {
  World w(8, 48);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::Evolution evo(core::EvolutionConfig{});
  cluster::Assignment a(w.topo.total_gpus()), b(w.topo.total_gpus());
  evo.refresh(a, ctx);
  evo.refresh(b, ctx);
  for (auto _ : bench_state) {
    auto [c1, c2] = evo.crossover(a, b);
    evo.repair(c1, ctx);
    evo.repair(c2, ctx);
    benchmark::DoNotOptimize(c1);
    benchmark::DoNotOptimize(c2);
  }
}
BENCHMARK(BM_CrossoverAndRepair)->Unit(benchmark::kMicrosecond);

void BM_Reorder(benchmark::State& bench_state) {
  World w(8, 48);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::Evolution evo(core::EvolutionConfig{});
  cluster::Assignment cand(w.topo.total_gpus());
  evo.refresh(cand, ctx);
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(core::Evolution::reorder(cand));
  }
}
BENCHMARK(BM_Reorder)->Unit(benchmark::kMicrosecond);

void BM_SrufScore(benchmark::State& bench_state) {
  World w(8, 48);
  auto ctx = core::make_context(w.state, nullptr, &w.limits);
  core::Evolution evo(core::EvolutionConfig{});
  cluster::Assignment cand(w.topo.total_gpus());
  evo.refresh(cand, ctx);
  const core::RhoMap rho = evo.mean_rho(ctx);
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(evo.score(cand, ctx, rho));
  }
}
BENCHMARK(BM_SrufScore)->Unit(benchmark::kMicrosecond);

void BM_PredictorFit(benchmark::State& bench_state) {
  predict::ProgressPredictor predictor;
  // Feed synthetic completed jobs once.
  for (JobId j = 0; j < 12; ++j) {
    sched::JobView v;
    v.spec.id = j;
    v.spec.variant = {"ResNet18", "bench", 20000, 10};
    v.profile = &model::profile_by_name("ResNet18");
    v.status = sched::JobStatus::Completed;
    v.init_loss = v.profile->init_loss;
    for (int e = 1; e <= 25; ++e) {
      v.epoch_log.push_back({10.0 * e, 20000.0 * e, 1.0, 0.9 * e / 25.0, 256});
    }
    v.epochs_completed = 25;
    v.samples_processed = 25 * 20000.0;
    predictor.observe_completed_job(v);
  }
  for (auto _ : bench_state) {
    predictor.fit();
  }
}
BENCHMARK(BM_PredictorFit)->Unit(benchmark::kMillisecond);

void BM_PredictorPredict(benchmark::State& bench_state) {
  World w(4, 8);
  predict::ProgressPredictor predictor;
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(predictor.predict(*w.views[0]));
  }
}
BENCHMARK(BM_PredictorPredict)->Unit(benchmark::kNanosecond);

void BM_SimEngineEventChurn(benchmark::State& bench_state) {
  for (auto _ : bench_state) {
    sim::SimEngine engine;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 10000) engine.schedule_after(1.0, chain);
    };
    engine.schedule_at(0.0, chain);
    engine.run();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SimEngineEventChurn)->Unit(benchmark::kMillisecond);

void BM_FullFifoSimulation(benchmark::State& bench_state) {
  workload::TraceConfig tc;
  tc.num_jobs = 40;
  tc.mean_interarrival_s = 10.0;
  const auto trace = workload::generate_trace(tc);
  sched::SimulationConfig sc;
  sc.topology.num_nodes = 4;
  for (auto _ : bench_state) {
    sched::FifoScheduler fifo;
    sched::ClusterSimulation sim(sc, trace, fifo);
    sim.run();
    benchmark::DoNotOptimize(sim.completed_jobs());
  }
}
BENCHMARK(BM_FullFifoSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ones::bench::run_micro_bench("micro_evolution", argc, argv);
}
