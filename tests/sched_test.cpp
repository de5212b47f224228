// Unit tests for src/sched: throughput oracle, placement helpers, the
// simulation driver contract, and the FIFO / SRTF / Tiresias / Optimus
// baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ones_scheduler.hpp"
#include "model/throughput.hpp"
#include "reference_evolution.hpp"
#include "drl/drl_scheduler.hpp"
#include "sched/fifo.hpp"
#include "sched/optimus.hpp"
#include "sched/oracle.hpp"
#include "sched/placement.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "workload/trace.hpp"

namespace ones::sched {
namespace {

cluster::Topology small_topology() {
  cluster::TopologyConfig c;
  c.num_nodes = 2;
  c.gpus_per_node = 4;
  return cluster::Topology(c);
}

JobView make_view(JobId id, const char* model, std::int64_t dataset) {
  JobView v;
  v.spec.id = id;
  v.spec.variant = {model, "test", dataset, 10};
  v.spec.requested_gpus = 2;
  v.profile = &model::profile_by_name(model);
  v.spec.requested_batch = std::min(v.profile->b_ref, v.profile->max_local_batch) * 2;
  v.init_loss = v.profile->init_loss;
  return v;
}

TEST(Oracle, ColocatedBeatsCrossNodeForCommHeavyJobs) {
  const auto topo = small_topology();
  ThroughputOracle oracle(topo);
  const auto v = make_view(1, "VGG16", 10000);  // 552 MB all-reduce
  const double x_intra = oracle.estimate_sps(v, 4, 512, true);
  const double x_inter = oracle.estimate_sps(v, 4, 512, false);
  EXPECT_GT(x_intra, x_inter);
}

TEST(Oracle, PlacedEstimateUsesActualLink) {
  const auto topo = small_topology();
  ThroughputOracle oracle(topo);
  const auto v = make_view(1, "VGG16", 10000);
  cluster::Assignment colocated(topo.total_gpus()), spread(topo.total_gpus());
  colocated.place(0, 1, 128);
  colocated.place(1, 1, 128);
  spread.place(0, 1, 128);
  spread.place(4, 1, 128);  // second node
  EXPECT_GT(oracle.estimate_placed_sps(v, model::read_placed(colocated, topo, 1)),
            oracle.estimate_placed_sps(v, model::read_placed(spread, topo, 1)));
}

TEST(Oracle, NoiseIsDeterministicPerConfiguration) {
  const auto topo = small_topology();
  OracleConfig c;
  c.noise_sigma = 0.2;
  ThroughputOracle oracle(topo, c);
  const auto v = make_view(1, "ResNet18", 20000);
  EXPECT_DOUBLE_EQ(oracle.estimate_sps(v, 2, 512, true),
                   oracle.estimate_sps(v, 2, 512, true));
  EXPECT_NE(oracle.estimate_sps(v, 2, 512, true), oracle.estimate_sps(v, 4, 512, true));
}

TEST(Oracle, CanColocateMatchesNodeSize) {
  const auto topo = small_topology();
  ThroughputOracle oracle(topo);
  EXPECT_TRUE(oracle.can_colocate(4));
  EXPECT_FALSE(oracle.can_colocate(5));
}

// The allocation-free oracle (one pass over the job's slots, the even
// split's largest share computed as ceil(B / c), a min/max node test for the
// link) must reproduce the vector-based formula bit for bit — every ONES
// decision rests on comparing these doubles.
TEST(Oracle, EstimatesAreBitIdenticalToTheVectorFormula) {
  cluster::TopologyConfig tc;
  tc.num_nodes = 4;
  tc.gpus_per_node = 8;
  const cluster::Topology topo(tc);
  for (const double sigma : {0.0, 0.1}) {
    OracleConfig oc;
    oc.noise_sigma = sigma;
    const ThroughputOracle oracle(topo, oc);
    const ones::testing::ReferenceOracle ref(topo, oc);
    JobId id = 0;
    for (const auto& profile : model::builtin_profiles()) {
      JobView v = make_view(++id, profile.name.c_str(), 10000);
      for (int c = 1; c <= 8; ++c) {
        // GPU sets: packed inside node 1, strided across nodes, and split
        // over nodes 0 and 1.
        std::vector<std::vector<GpuId>> sets(3);
        for (int i = 0; i < c; ++i) {
          sets[0].push_back(8 + i);
          sets[1].push_back((i * 9) % topo.total_gpus());
          sets[2].push_back(4 + i);
        }
        for (auto& gpus : sets) {
          std::sort(gpus.begin(), gpus.end());
          const int unit = std::min(profile.b_ref, profile.max_local_batch) / 2 + 1;
          // Even splits with and without a remainder, and a lopsided split.
          std::vector<std::vector<int>> splits = {
              ones::testing::ref_even_split(unit * c, c),
              ones::testing::ref_even_split(unit * c + c / 2, c),
              std::vector<int>(static_cast<std::size_t>(c), 1)};
          splits[2][0] = 3 * unit;
          for (const auto& batches : splits) {
            cluster::Assignment a(topo.total_gpus());
            for (std::size_t i = 0; i < gpus.size(); ++i) {
              a.place(gpus[i], v.spec.id, batches[i]);
            }
            const model::PlacedJob placed = model::read_placed(a, topo, v.spec.id);
            EXPECT_EQ(oracle.estimate_placed_sps(v, placed), ref.estimate_placed_sps(v, a))
                << profile.name << " c=" << c;
            EXPECT_EQ(model::step_time_s(profile, placed),
                      ones::testing::ref_step_time_s(profile, batches,
                                                     ones::testing::ref_link_profile(topo, gpus)));
            const int b = a.global_batch(v.spec.id);
            for (const bool colocated : {true, false}) {
              EXPECT_EQ(oracle.estimate_sps(v, c, b, colocated),
                        ref.estimate_sps(v, c, b, colocated))
                  << profile.name << " c=" << c << " B=" << b;
            }
          }
          // link_profile accepts unsorted worker lists.
          std::vector<GpuId> unsorted(gpus.rbegin(), gpus.rend());
          if (unsorted.size() > 2) std::swap(unsorted[0], unsorted[unsorted.size() / 2]);
          const cluster::LinkProfile got = topo.link_profile(unsorted);
          const cluster::LinkProfile want = ones::testing::ref_link_profile(topo, unsorted);
          EXPECT_EQ(got.bandwidth_Bps, want.bandwidth_Bps);
          EXPECT_EQ(got.latency_s, want.latency_s);
        }
      }
    }
  }
}

TEST(Placement, PrefersSingleNodeBestFit) {
  const auto topo = small_topology();
  cluster::Assignment a(topo.total_gpus());
  // Node 0 has 2 free (GPUs 2,3), node 1 has 4 free.
  a.place(0, 9, 8);
  a.place(1, 9, 8);
  const auto two = pick_idle_gpus(a, topo, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(topo.node_of(two[0]), 0);  // best fit: the tighter node
  EXPECT_EQ(topo.node_of(two[1]), 0);
}

TEST(Placement, SpillsAcrossNodesWhenNeeded) {
  const auto topo = small_topology();
  cluster::Assignment a(topo.total_gpus());
  a.place(0, 9, 8);  // 3 free on node 0, 4 free on node 1
  const auto six = pick_idle_gpus(a, topo, 6);
  ASSERT_EQ(six.size(), 6u);
}

TEST(Placement, ReturnsEmptyWhenInsufficient) {
  const auto topo = small_topology();
  cluster::Assignment a(topo.total_gpus());
  for (int g = 0; g < 7; ++g) a.place(g, 9, 8);
  EXPECT_TRUE(pick_idle_gpus(a, topo, 2).empty());
}

/// A hand-built state for repack on 2x4 GPUs: jobs 0 and 1 (2 GPUs
/// requested each) run on GPUs {0,1} and {4,5}; job 2 waits.
struct RepackCase {
  cluster::Topology topo = small_topology();
  cluster::Assignment current{topo.total_gpus()};
  std::array<JobView, 3> jobs = {make_view(0, "ResNet18", 10000),
                                 make_view(1, "ResNet18", 10000),
                                 make_view(2, "ResNet18", 10000)};
  ClusterState state;

  RepackCase() {
    run(jobs[0], {0, 1});
    run(jobs[1], {4, 5});
    for (const JobView& job : jobs) state.admit(job);
    state.topology = &topo;
    state.current = &current;
  }
  void run(JobView& job, const std::vector<GpuId>& gpus) {
    place_job_even(current, job.spec.id, gpus, job.spec.requested_batch);
    job.status = JobStatus::Running;
    job.gpus = static_cast<int>(gpus.size());
  }
};

std::vector<GpuId> gpus_of(const cluster::Assignment& a, JobId job) {
  const auto gpus = a.gpus_of(job);
  return {gpus.begin(), gpus.end()};
}

TEST(Placement, RepackReturnsNulloptForTheRunningSetAtLiveSizes) {
  RepackCase c;
  const std::vector<const JobView*> order = {&c.jobs[1], &c.jobs[0]};
  const auto picks = fit_requested(order, c.current.healthy_count());
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_FALSE(repack(c.state, picks, "test").has_value());
  // Dropping a running job, or adding the waiting one, is a change.
  EXPECT_TRUE(repack(c.state, std::span(picks).first(1), "test").has_value());
  const std::vector<const JobView*> all = {&c.jobs[0], &c.jobs[1], &c.jobs[2]};
  const auto next = repack(c.state, fit_requested(all, c.current.healthy_count()), "test");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->gpu_count(2), 2);
}

TEST(Placement, RepackReplacesARunningPickWithANewWorkerCount) {
  RepackCase c;
  const std::vector<Pick> picks = {{&c.jobs[0], 2}, {&c.jobs[1], 4}};
  const auto next = repack(c.state, picks, "test");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(gpus_of(*next, 0), (std::vector<GpuId>{0, 1}));
  // Job 1 leaves GPUs 4-5 and gets the best-fit node for four workers, with
  // its requested batch split evenly.
  EXPECT_EQ(gpus_of(*next, 1), (std::vector<GpuId>{4, 5, 6, 7}));
  EXPECT_EQ(next->global_batch(1), c.jobs[1].spec.requested_batch);
  EXPECT_EQ(next->slot(4).local_batch, c.jobs[1].spec.requested_batch / 4);
}

// The elastic case (Gandiva): a fault shrank running job 1 to one worker,
// below its 2 requested GPUs. It keeps that GPU and batch, and capacity is
// still charged its requested size.
TEST(Placement, RepackKeepsARunningJobShrunkBelowItsRequest) {
  RepackCase c;
  c.current.set_health(5, cluster::SlotHealth::Failed);
  c.current.clear(5);  // the elastic shrink drops the lost worker
  c.jobs[1].gpus = 1;
  const int local_batch = c.current.slot(4).local_batch;
  const std::vector<const JobView*> order = {&c.jobs[0], &c.jobs[1], &c.jobs[2]};

  const auto picks = fit_requested(order, c.current.healthy_count());
  ASSERT_EQ(picks.size(), 3u);
  EXPECT_EQ(picks[1].workers, 1);
  const auto next = repack(c.state, picks, "test");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(gpus_of(*next, 1), (std::vector<GpuId>{4}));
  EXPECT_EQ(next->slot(4).local_batch, local_batch);
  EXPECT_EQ(next->gpu_count(2), 2);

  // Five GPUs fit jobs 0 and 1 at their requested sizes, not job 2 as well.
  EXPECT_EQ(fit_requested(order, 5).size(), 2u);
}

SimulationConfig small_sim_config() {
  SimulationConfig c;
  c.topology.num_nodes = 2;  // 8 GPUs
  return c;
}

workload::TraceConfig small_trace_config(int jobs, std::uint64_t seed = 11) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = 20.0;
  t.seed = seed;
  return t;
}

TEST(Simulation, FifoCompletesAllJobs) {
  FifoScheduler fifo;
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(10)),
                        fifo);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_EQ(sim.metrics().completed(), 10u);
  // Cluster drained at the end.
  EXPECT_EQ(sim.current_assignment().idle_count(), sim.topology().total_gpus());
}

TEST(Simulation, DeterministicAcrossRuns) {
  const auto trace = workload::generate_trace(small_trace_config(8));
  double jct_a, jct_b;
  {
    FifoScheduler fifo;
    ClusterSimulation sim(small_sim_config(), trace, fifo);
    sim.run();
    jct_a = summarize("f", sim.metrics(), 8).avg_jct;
  }
  {
    FifoScheduler fifo;
    ClusterSimulation sim(small_sim_config(), trace, fifo);
    sim.run();
    jct_b = summarize("f", sim.metrics(), 8).avg_jct;
  }
  EXPECT_DOUBLE_EQ(jct_a, jct_b);
}

TEST(Simulation, EpochLogsAreMonotone) {
  FifoScheduler fifo;
  const auto trace = workload::generate_trace(small_trace_config(5));
  ClusterSimulation sim(small_sim_config(), trace, fifo);
  sim.run();
  for (const auto& spec : trace) {
    const auto& v = sim.job_view(spec.id);
    EXPECT_EQ(v.status, JobStatus::Completed);
    ASSERT_GE(v.epoch_log.size(), 10u);  // at least the patience tail
    for (std::size_t i = 1; i < v.epoch_log.size(); ++i) {
      EXPECT_GE(v.epoch_log[i].time_s, v.epoch_log[i - 1].time_s);
      EXPECT_GT(v.epoch_log[i].samples_processed, v.epoch_log[i - 1].samples_processed);
    }
    EXPECT_EQ(static_cast<int>(v.epoch_log.size()), v.epochs_completed);
  }
}

TEST(Simulation, JctDecomposesIntoExecAndQueue) {
  FifoScheduler fifo;
  const auto trace = workload::generate_trace(small_trace_config(6));
  ClusterSimulation sim(small_sim_config(), trace, fifo);
  sim.run();
  for (const auto& spec : trace) {
    const auto& j = sim.metrics().job(spec.id);
    EXPECT_NEAR(j.jct(), j.exec_time_s + j.queue_time(), 1e-9);
    EXPECT_GE(j.queue_time(), -1e-9);
    EXPECT_GT(j.exec_time_s, 0.0);
  }
}

// A scheduler that returns an assignment referencing a job that does not
// exist must be rejected by the driver's validation.
class RogueScheduler : public Scheduler {
 public:
  std::string name() const override { return "Rogue"; }
  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent&) override {
    cluster::Assignment a(state.topology->total_gpus());
    a.place(0, 424242, 32);
    return a;
  }
};

TEST(Simulation, RejectsAssignmentsForUnknownJobs) {
  RogueScheduler rogue;
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(3)),
                        rogue);
  EXPECT_THROW(sim.run(), std::logic_error);
}

// A scheduler that exceeds a job's GPU memory limit must also be rejected.
class OversizedBatchScheduler : public Scheduler {
 public:
  std::string name() const override { return "Oversized"; }
  std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                              const SchedulerEvent& event) override {
    if (event.kind != EventKind::JobArrival) return std::nullopt;
    cluster::Assignment a = *state.current;
    const auto* job = state.job(event.job);
    a.place(0, event.job, job->profile->max_local_batch * 2);
    return a;
  }
};

TEST(Simulation, RejectsOversizedLocalBatches) {
  OversizedBatchScheduler bad;
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(3)),
                        bad);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, OracleHookReportsDecreasingRemaining) {
  // Exposed ground-truth hook must shrink as jobs progress.
  class Probe : public Scheduler {
   public:
    std::vector<double> samples;
    std::string name() const override { return "Probe"; }
    std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                                const SchedulerEvent& event) override {
      if (event.kind == EventKind::JobArrival && state.current->idle_count() > 0) {
        cluster::Assignment a = *state.current;
        const auto* job = state.job(event.job);
        a.place(a.idle_gpus().front(), event.job,
                std::min(job->spec.requested_batch, job->profile->max_local_batch));
        return a;
      }
      if (event.kind == EventKind::EpochComplete) {
        samples.push_back(state.true_remaining_samples(event.job, 256));
      }
      return std::nullopt;
    }
  };
  Probe probe;
  auto tc = small_trace_config(1);
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(tc), probe);
  sim.run();
  ASSERT_GE(probe.samples.size(), 5u);
  EXPECT_LT(probe.samples.back(), probe.samples.front());
}

TEST(Tiresias, QueueIndexFollowsAttainedService) {
  TiresiasConfig cfg;
  cfg.queue_thresholds = {100.0, 1000.0};
  TiresiasScheduler t(cfg);
  auto v = make_view(1, "ResNet18", 20000);
  v.spec.requested_gpus = 2;
  v.exec_time_s = 10.0;  // service 20
  EXPECT_EQ(t.queue_of(v), 0);
  v.exec_time_s = 200.0;  // service 400
  EXPECT_EQ(t.queue_of(v), 1);
  v.exec_time_s = 2000.0;  // service 4000
  EXPECT_EQ(t.queue_of(v), 2);
}

TEST(Tiresias, CompletesTraceAndPreempts) {
  TiresiasScheduler t;
  auto tc = small_trace_config(12);
  tc.mean_interarrival_s = 5.0;  // force contention so LAS must preempt
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(tc), t);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
}

TEST(Optimus, PredictsFromPriorWithoutHistory) {
  OptimusScheduler o;
  const auto v = make_view(1, "ResNet18", 20000);
  const double rem = o.predict_remaining_epochs(v);
  EXPECT_GT(rem, 10.0);  // prior total + patience tail
}

TEST(Optimus, FitConvergesTowardTruth) {
  OptimusScheduler o;
  auto v = make_view(1, "ResNet18", 20000);
  // Fabricate an accuracy curve approaching the ceiling; remaining epochs
  // should fall as observed epochs accumulate.
  const auto& p = *v.profile;
  for (int e = 1; e <= 10; ++e) {
    const double frac = static_cast<double>(e) / p.epochs_to_target_ref;
    const double acc = p.accuracy_ceiling * (1.0 - std::exp(-2.5 * frac));
    v.epoch_log.push_back({e * 10.0, e * 20000.0, 1.0, acc, 256});
  }
  v.epochs_completed = 10;
  const double rem10 = o.predict_remaining_epochs(v);
  v.epoch_log.push_back({110.0, 11 * 20000.0, 1.0, 0.9, 256});
  v.epochs_completed = 11;
  const double rem11 = o.predict_remaining_epochs(v);
  EXPECT_LT(rem11, rem10 + 1.0);
  EXPECT_GT(rem10, 0.0);
}

TEST(Optimus, IsPeriodicAndCompletesTrace) {
  OptimusScheduler o;
  EXPECT_GT(o.period_s(), 0.0);
  ClusterSimulation sim(small_sim_config(), workload::generate_trace(small_trace_config(8)),
                        o);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  // Round-based: first jobs cannot start before the first timer tick.
  double min_queue = 1e18;
  for (double q : sim.metrics().queue_times()) min_queue = std::min(min_queue, q);
  EXPECT_GT(min_queue, 0.0);
}

TEST(Srtf, OracleBaselineCompletesAndBeatsFifoOnContendedTrace) {
  auto tc = small_trace_config(16);
  tc.mean_interarrival_s = 4.0;
  const auto trace = workload::generate_trace(tc);
  double fifo_jct, srtf_jct;
  {
    FifoScheduler s;
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    EXPECT_TRUE(sim.all_completed());
    fifo_jct = summarize("f", sim.metrics(), 8).avg_jct;
  }
  {
    SrtfOracleScheduler s;
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    EXPECT_TRUE(sim.all_completed());
    srtf_jct = summarize("s", sim.metrics(), 8).avg_jct;
  }
  EXPECT_LT(srtf_jct, fifo_jct * 1.15);  // SRPT should not lose badly
}

TEST(Simulation, BackfillFifoNeverWorseOnUtilization) {
  auto tc = small_trace_config(14);
  tc.mean_interarrival_s = 6.0;
  const auto trace = workload::generate_trace(tc);
  double strict_makespan, backfill_makespan;
  {
    FifoScheduler s(false);
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    strict_makespan = sim.metrics().makespan();
  }
  {
    FifoScheduler s(true);
    ClusterSimulation sim(small_sim_config(), trace, s);
    sim.run();
    backfill_makespan = sim.metrics().makespan();
  }
  EXPECT_LE(backfill_makespan, strict_makespan * 1.05);
}

// Incremental-vs-rescan audit (DESIGN.md §12): with audit_incremental set,
// the driver recomputes every incremental index (Assignment's idle/per-job
// stats, the active/id job indexes) from first principles after every
// scheduler notification and throws on divergence. Exercising all six
// policies covers every mutation pattern — FIFO's monotone placement,
// SRTF/Tiresias preemption churn, Optimus's periodic timer reshuffles,
// DRL's action decoding, and ONES's evolutionary full-schedule swaps.
// The audit must also never change results.
TEST(Simulation, IncrementalIndexesSurviveAuditAcrossAllSchedulers) {
  struct Policy {
    std::string name;
    std::function<std::unique_ptr<Scheduler>()> make;
  };
  const std::vector<Policy> policies = {
      {"ONES", [] { return std::make_unique<core::OnesScheduler>(); }},
      {"DRL", [] { return std::make_unique<drl::DrlScheduler>(); }},
      {"Tiresias", [] { return std::make_unique<TiresiasScheduler>(); }},
      {"Optimus", [] { return std::make_unique<OptimusScheduler>(); }},
      {"FIFO-BF", [] { return std::make_unique<FifoScheduler>(true); }},
      {"SRTF", [] { return std::make_unique<SrtfOracleScheduler>(); }},
  };
  // Contended trace (more requested GPUs than the cluster holds at once) so
  // every policy actually preempts / reshuffles instead of placing once.
  const auto trace = workload::generate_trace(small_trace_config(12, 23));
  for (const Policy& p : policies) {
    SCOPED_TRACE(p.name);
    telemetry::Summary plain, audited;
    {
      auto sched = p.make();
      ClusterSimulation sim(small_sim_config(), trace, *sched);
      sim.run();
      plain = sim.summary(p.name);
    }
    {
      auto sched = p.make();
      auto config = small_sim_config();
      config.audit_incremental = true;
      ClusterSimulation sim(config, trace, *sched);
      sim.run();
      audited = sim.summary(p.name);
    }
    EXPECT_DOUBLE_EQ(plain.avg_jct, audited.avg_jct);
    EXPECT_DOUBLE_EQ(plain.makespan, audited.makespan);
    EXPECT_DOUBLE_EQ(plain.utilization, audited.utilization);
    EXPECT_DOUBLE_EQ(plain.cluster_joules, audited.cluster_joules);
  }
}

// The audit must catch real divergence: corrupting an index is not directly
// reachable through the public API (that is the point), so instead verify
// the Assignment-level audit entry point accepts a freshly-mutated schedule
// after every kind of mutation.
TEST(Assignment, AuditAcceptsEveryMutationPattern) {
  cluster::Assignment a(8);
  a.audit_indexes();
  a.place(3, 7, 32);
  a.place(4, 7, 32);
  a.place(0, 2, 16);
  a.audit_indexes();
  a.place(3, 2, 8);  // steal an occupied GPU for another job
  a.audit_indexes();
  a.set_local_batch(4, 64);
  a.audit_indexes();
  a.clear(0);
  a.audit_indexes();
  EXPECT_EQ(a.evict(7), 1);  // GPU 3 was stolen above; only GPU 4 remains
  a.audit_indexes();
  EXPECT_EQ(a.idle_count(), 7);
  EXPECT_EQ(a.gpu_count(2), 1);
  EXPECT_EQ(a.global_batch(2), 8);
}

// ClusterState's job lists have exactly two writers, admit() and retire();
// its audit catches a job whose status and list membership disagree.
TEST(ClusterState, AdmitAndRetireKeepTheIndexesAudited) {
  JobView a, b;
  a.spec.id = 7;
  b.spec.id = 3;
  ClusterState s;
  s.admit(a);
  s.admit(b);
  s.audit_indexes();
  EXPECT_EQ(s.jobs(), (std::vector<const JobView*>{&a, &b}));  // arrival order
  EXPECT_EQ(s.job(3), &b);
  EXPECT_EQ(s.job(7), &a);
  EXPECT_EQ(s.job(5), nullptr);
  EXPECT_EQ(s.job(-1), nullptr);
  EXPECT_EQ(s.job(1000), nullptr);
  EXPECT_EQ(s.id_bound(), 8u);
  EXPECT_THROW(s.admit(a), std::logic_error);
  a.status = JobStatus::Completed;
  EXPECT_THROW(s.audit_indexes(), std::logic_error);  // completed, still active
  s.retire(a);
  s.audit_indexes();
  EXPECT_EQ(s.active_jobs(), std::vector<const JobView*>{&b});
  EXPECT_EQ(s.job(7), &a);  // completed jobs stay addressable by id
  EXPECT_THROW(s.retire(a), std::logic_error);
}

}  // namespace
}  // namespace ones::sched
