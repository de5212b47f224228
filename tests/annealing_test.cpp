// Tests for the simulated-annealing scheduler and the trace CSV I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "core/annealing.hpp"
#include "prof/profiler.hpp"
#include "sched/fifo.hpp"
#include "sched/simulation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace ones {
namespace {

sched::SimulationConfig small_config() {
  sched::SimulationConfig c;
  c.topology.num_nodes = 2;
  return c;
}

workload::TraceConfig trace_config(int jobs, double interarrival, std::uint64_t seed = 23) {
  workload::TraceConfig t;
  t.num_jobs = jobs;
  t.mean_interarrival_s = interarrival;
  t.seed = seed;
  return t;
}

TEST(Annealing, Properties) {
  core::AnnealingScheduler s;
  EXPECT_EQ(s.name(), "ONES-SA");
  EXPECT_EQ(s.mechanism(), sched::ScalingMechanism::Elastic);
  EXPECT_DOUBLE_EQ(s.period_s(), 0.0);
}

TEST(Annealing, CompletesAllJobs) {
  core::AnnealingScheduler s;
  sched::ClusterSimulation sim(small_config(), workload::generate_trace(trace_config(12, 15)),
                               s);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  EXPECT_GT(s.proposals(), 0u);
  EXPECT_GT(s.accepted(), 0u);
}

TEST(Annealing, TemperatureCoolsMonotonically) {
  core::AnnealingScheduler s;
  const double t0 = s.temperature();
  sched::ClusterSimulation sim(small_config(), workload::generate_trace(trace_config(8, 15)),
                               s);
  sim.run();
  EXPECT_LT(s.temperature(), t0);
  EXPECT_GE(s.temperature(), core::AnnealingScheduler::kMinTemperature);
}

// ONES-SA shares ONES's policy front-end, so an attached registry and
// profiler must reach its progress predictor as they reach ONES's.
TEST(Annealing, ForwardsInstrumentsToItsPredictor) {
  const auto trace = workload::generate_trace(trace_config(12, 15));
  core::OnesScheduler ones_sched;
  core::AnnealingScheduler annealing;
  for (sched::Scheduler* s : std::initializer_list<sched::Scheduler*>{&ones_sched, &annealing}) {
    telemetry::MetricsRegistry registry;
    prof::Profiler profiler;
    sched::SimulationConfig config = small_config();
    config.metrics = &registry;
    config.profiler = &profiler;
    sched::ClusterSimulation sim(config, trace, *s);
    sim.run();
    EXPECT_GT(registry.counter_value("predict_error_samples_total"), 0.0) << s->name();
    std::uint64_t fits = 0;
    for (const auto& span : profiler.stats()) {
      if (span.path.ends_with("predict.fit")) fits += span.count;
    }
    EXPECT_GT(fits, 0u) << s->name();
  }
}

TEST(Annealing, RespectsBatchLimitsViaSharedMachinery) {
  core::AnnealingScheduler s;
  const auto trace = workload::generate_trace(trace_config(10, 10, 29));
  sched::ClusterSimulation sim(small_config(), trace, s);
  sim.run();  // driver validation would throw on any violation
  EXPECT_TRUE(sim.all_completed());
  for (const auto& spec : trace) {
    const auto& v = sim.job_view(spec.id);
    for (std::size_t i = 1; i < v.epoch_log.size(); ++i) {
      const int prev = v.epoch_log[i - 1].global_batch;
      if (prev > 0) {
        EXPECT_LE(v.epoch_log[i].global_batch, 4 * prev);
      }
    }
  }
}

TEST(Annealing, ComparableToEvolutionOnEasyTrace) {
  // On a lightly loaded trace both searches should land in the same
  // ballpark (within 2x); the interesting gaps appear under contention
  // (see bench/search_strategies).
  const auto trace = workload::generate_trace(trace_config(10, 40, 31));
  double sa_jct;
  {
    core::AnnealingScheduler s;
    sched::ClusterSimulation sim(small_config(), trace, s);
    sim.run();
    sa_jct = telemetry::summarize("sa", sim.metrics(), 8).avg_jct;
  }
  EXPECT_GT(sa_jct, 0.0);
  EXPECT_LT(sa_jct, 4000.0);
}

TEST(TraceIo, RoundTripsExactly) {
  auto tc = trace_config(20, 10);
  tc.abnormal_fraction = 0.3;
  const auto trace = workload::generate_trace(tc);
  std::stringstream ss;
  workload::write_trace_csv(ss, trace);
  const auto loaded = workload::read_trace_csv(ss);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].id, trace[i].id);
    EXPECT_EQ(loaded[i].variant.model_name, trace[i].variant.model_name);
    EXPECT_EQ(loaded[i].variant.dataset, trace[i].variant.dataset);
    EXPECT_EQ(loaded[i].variant.dataset_size, trace[i].variant.dataset_size);
    EXPECT_EQ(loaded[i].variant.num_classes, trace[i].variant.num_classes);
    EXPECT_DOUBLE_EQ(loaded[i].arrival_time_s, trace[i].arrival_time_s);
    EXPECT_EQ(loaded[i].requested_gpus, trace[i].requested_gpus);
    EXPECT_EQ(loaded[i].requested_batch, trace[i].requested_batch);
    EXPECT_EQ(loaded[i].dynamics_seed, trace[i].dynamics_seed);
    EXPECT_DOUBLE_EQ(loaded[i].kill_after_s, trace[i].kill_after_s);
  }
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream ss("id,model\n1,ResNet18\n");
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, RejectsWrongColumnCount) {
  std::stringstream ss;
  workload::write_trace_csv(ss, {});
  ss.seekp(0, std::ios::end);
  ss << "1,ResNet18,CIFAR10-20k,20000\n";
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, RejectsUnknownModel) {
  std::stringstream ss;
  ss << "id,model,dataset,dataset_size,num_classes,arrival_s,requested_gpus,"
        "requested_batch,dynamics_seed,kill_after_s\n";
  ss << "0,GPT-99,X-1k,1000,2,0,1,32,7,0\n";
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, RejectsNonNumericField) {
  std::stringstream ss;
  ss << "id,model,dataset,dataset_size,num_classes,arrival_s,requested_gpus,"
        "requested_batch,dynamics_seed,kill_after_s\n";
  ss << "zero,ResNet18,CIFAR10-20k,20000,10,0,1,256,7,0\n";
  EXPECT_THROW(workload::read_trace_csv(ss), std::logic_error);
}

TEST(TraceIo, SaveAndLoadFile) {
  const auto trace = workload::generate_trace(trace_config(5, 10));
  const std::string path = "/tmp/ones_trace_io_test.csv";
  workload::save_trace(path, trace);
  const auto loaded = workload::load_trace(path);
  EXPECT_EQ(loaded.size(), trace.size());
  EXPECT_THROW(workload::load_trace("/nonexistent/dir/x.csv"), std::logic_error);
}

TEST(TraceIo, LoadedTraceRunsIdenticallyToOriginal) {
  const auto trace = workload::generate_trace(trace_config(8, 15, 37));
  std::stringstream ss;
  workload::write_trace_csv(ss, trace);
  const auto loaded = workload::read_trace_csv(ss);

  auto run = [&](const std::vector<workload::JobSpec>& t) {
    sched::FifoScheduler f;
    sched::ClusterSimulation sim(small_config(), t, f);
    sim.run();
    return telemetry::summarize("f", sim.metrics(), 8).avg_jct;
  };
  EXPECT_DOUBLE_EQ(run(trace), run(loaded));
}

}  // namespace
}  // namespace ones
