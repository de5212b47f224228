// Tests for src/trace: record serialization round-trips, sink behavior
// (JSONL, Chrome, seq-stamping, atomic file writer), the elastic-protocol
// phase adapter, and the golden-trace digest of the quickstart scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "core/annealing.hpp"
#include "core/ones_scheduler.hpp"
#include "elastic/protocol.hpp"
#include "exp/run_spec.hpp"
#include "sched/gandiva.hpp"
#include "sched/optimus.hpp"
#include "sched/simulation.hpp"
#include "sched/srtf.hpp"
#include "sched/tiresias.hpp"
#include "trace/record.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

namespace ones::trace {
namespace {

namespace fs = std::filesystem;

TraceRecord full_record() {
  TraceRecord r;
  r.kind = RecordKind::JobReconfigured;
  r.t = 1234.5678901234567;
  r.job = 42;
  r.gpus = 4;
  r.global_batch = 256;
  r.old_gpus = 2;
  r.old_batch = 128;
  r.cost_s = 1.0625;
  r.aborted = true;
  r.seq = 987654321;
  r.count = 17;
  r.detail = "0,1,8,9";
  return r;
}

TEST(TraceRecord, JsonlRoundTripsEveryField) {
  const TraceRecord r = full_record();
  const TraceRecord back = record_from_jsonl_line(to_jsonl_line(r));
  EXPECT_EQ(back, r);
}

TEST(TraceRecord, KindNamesRoundTrip) {
  for (RecordKind k : {RecordKind::RunBegin, RecordKind::RunEnd,
                       RecordKind::JobSubmitted, RecordKind::JobAdmitted,
                       RecordKind::JobPlaced, RecordKind::JobPreempted,
                       RecordKind::JobReconfigured, RecordKind::BatchResized,
                       RecordKind::JobCompleted, RecordKind::ElasticPaused,
                       RecordKind::ElasticResumed, RecordKind::ProtocolPhase,
                       RecordKind::EvolutionStep, RecordKind::SimEvent}) {
    EXPECT_EQ(kind_from_name(kind_name(k)), k);
  }
  EXPECT_THROW(kind_from_name("no_such_kind"), std::runtime_error);
}

TEST(TraceRecord, RejectsMalformedLines) {
  EXPECT_THROW(record_from_jsonl_line("[1,2,3]"), std::runtime_error);
  EXPECT_THROW(record_from_jsonl_line("{\"kind\":\"job_placed\"}"),
               std::runtime_error);
  EXPECT_THROW(record_from_jsonl_line("{\"t\":0}"), std::runtime_error);
  EXPECT_THROW(record_from_jsonl_line("not json at all"), std::runtime_error);
}

TEST(TraceRecord, GpuListRoundTrips) {
  const std::vector<GpuId> gpus = {0, 3, 15, 2};
  EXPECT_EQ(format_gpu_list(gpus), "0,3,15,2");
  EXPECT_EQ(parse_gpu_list("0,3,15,2"), gpus);
  EXPECT_EQ(format_gpu_list({}), "");
  EXPECT_TRUE(parse_gpu_list("").empty());
  EXPECT_THROW(parse_gpu_list("1,x,3"), std::runtime_error);
}

TEST(Sinks, SeqStampedSinkOverridesTheSequence) {
  RecordBufferSink buffer;
  SeqStampedSink stamped(buffer);
  TraceRecord r;
  r.kind = RecordKind::SimEvent;
  r.seq = 999;  // emitters never set seq; a stale value must not leak through
  stamped.set_seq(7);
  stamped.on_record(r);
  stamped.set_seq(8);
  stamped.on_record(r);
  ASSERT_EQ(buffer.records().size(), 2u);
  EXPECT_EQ(buffer.records()[0].seq, 7u);
  EXPECT_EQ(buffer.records()[1].seq, 8u);
}

TEST(Sinks, MultiSinkFansOut) {
  RecordBufferSink a;
  RecordBufferSink b;
  MultiSink multi({&a, &b});
  multi.on_record(full_record());
  ASSERT_EQ(a.records().size(), 1u);
  ASSERT_EQ(b.records().size(), 1u);
  EXPECT_EQ(a.records()[0], b.records()[0]);
}

/// Run a Table-2 trace (seed 7) of `jobs` jobs at `interarrival_s` mean
/// inter-arrival on `nodes`x4 GPUs under `scheduler` through `sink`.
/// Returns {deployments, events fired}.
std::pair<std::uint64_t, std::uint64_t> run_scenario(sched::Scheduler& scheduler,
                                                     TraceSink& sink, int nodes, int jobs,
                                                     double interarrival_s) {
  sched::SimulationConfig config;
  config.topology.num_nodes = nodes;
  config.trace_sink = &sink;
  workload::TraceConfig tc;
  tc.num_jobs = jobs;
  tc.mean_interarrival_s = interarrival_s;
  tc.seed = 7;
  sched::ClusterSimulation sim(config, workload::generate_trace(tc), scheduler);
  sim.run();
  EXPECT_TRUE(sim.all_completed());
  return {sim.deployments(), sim.events_fired()};
}

/// Run the quickstart scenario (examples/quickstart.cpp: 4x4 GPUs, 24 jobs,
/// 45 s mean inter-arrival, seed 7) under `scheduler` through `sink`.
void run_quickstart(sched::Scheduler& scheduler, TraceSink& sink) {
  run_scenario(scheduler, sink, 4, 24, 45.0);
}

void run_quickstart_ones(TraceSink& sink) {
  core::OnesScheduler scheduler;
  run_quickstart(scheduler, sink);
}

/// FNV-1a 64 digest of the quickstart JSONL stream under `scheduler`.
std::uint64_t quickstart_digest(sched::Scheduler& scheduler) {
  std::ostringstream out;
  JsonlSink jsonl(out);
  run_quickstart(scheduler, jsonl);
  return exp::fnv1a64(out.str());
}

/// Golden FNV-1a 64 digest of the quickstart ONES JSONL stream. This pins
/// the exact trace bytes: any change to the scheduler's decisions, the
/// simulator's event order, or the serialization format moves it. If your
/// change is INTENTIONAL, re-pin: the test failure message prints the new
/// value, and `./build/examples/quickstart --trace-dir=...` lets you diff
/// the streams to confirm the delta is the one you meant (see CLAUDE.md).
constexpr std::uint64_t kQuickstartOnesDigest = 0xe2a2a72f2831eb90ULL;

TEST(GoldenTrace, QuickstartOnesDigestIsPinned) {
  core::OnesScheduler scheduler;
  const std::uint64_t digest = quickstart_digest(scheduler);
  EXPECT_EQ(digest, kQuickstartOnesDigest)
      << "quickstart ONES trace digest changed; new digest: 0x" << std::hex << digest;
}

/// Golden digest of one short ONES run at 128 GPUs (32x4, 16 jobs, 9 s mean
/// inter-arrival, seed 7): twice the largest cluster the lock-step
/// evolution test covers, so hot-path rewrites stay pinned beyond it. Same
/// re-pin rules as above.
constexpr std::uint64_t kOnes128GpuDigest = 0x4043214355dab6bcULL;

TEST(GoldenTrace, Ones128GpuDigestIsPinned) {
  core::OnesScheduler scheduler;
  std::ostringstream out;
  JsonlSink jsonl(out);
  const auto [deployments, events] = run_scenario(scheduler, jsonl, 32, 16, 9.0);
  EXPECT_EQ(deployments, 33u);
  EXPECT_EQ(events, 518u);
  const std::uint64_t digest = exp::fnv1a64(out.str());
  EXPECT_EQ(digest, kOnes128GpuDigest)
      << "128-GPU ONES trace digest changed; new digest: 0x" << std::hex << digest;
}

/// Policies pinned on the same quickstart trace (same re-pin rules as
/// above): the ONES search variants that share its policy front-end and
/// operators, and the gang baselines that share sched::repack. The
/// quickstart exercises repack's keep and re-place paths: Tiresias, SRTF*
/// and Gandiva preempt jobs in it, and Optimus resizes running ones.
struct GoldenVariant {
  const char* name;
  std::unique_ptr<sched::Scheduler> (*make)();
  std::uint64_t digest;
};

std::unique_ptr<sched::Scheduler> make_ones(const core::OnesConfig& config) {
  return std::make_unique<core::OnesScheduler>(config);
}

template <typename Policy>
std::unique_ptr<sched::Scheduler> make() {
  return std::make_unique<Policy>();
}

const GoldenVariant kGoldenVariants[] = {
    {"NoCrossoverNoMutation",
     [] {
       core::OnesConfig c;
       c.evolution.use_crossover = false;
       c.evolution.use_mutation = false;
       return make_ones(c);
     },
     0x0ab5c8168272fd38ULL},
    {"NoReorder",
     [] {
       core::OnesConfig c;
       c.evolution.use_reorder = false;
       return make_ones(c);
     },
     0x652c36215f0d02c4ULL},
    {"NoPredictor",
     [] {
       core::OnesConfig c;
       c.use_predictor = false;
       return make_ones(c);
     },
     0x359c11b63bb49d24ULL},
    {"LambdaEnergy8",
     [] {
       core::OnesConfig c;
       c.evolution.lambda_energy = 8.0;
       return make_ones(c);
     },
     0x25a6ec2257fdf4c8ULL},
    {"Annealing", make<core::AnnealingScheduler>, 0x08b7ed130dcd98e9ULL},
    {"Tiresias", make<sched::TiresiasScheduler>, 0x8010194bf30c2ba1ULL},
    {"SRTF", make<sched::SrtfOracleScheduler>, 0xa23ae7410fb1cc54ULL},
    {"Optimus", make<sched::OptimusScheduler>, 0x56511b9a4033bb89ULL},
    {"Gandiva", make<sched::GandivaScheduler>, 0x8d1e4e175b4eee2cULL},
};

void PrintTo(const GoldenVariant& variant, std::ostream* os) { *os << variant.name; }

class GoldenTraceVariant : public ::testing::TestWithParam<GoldenVariant> {};

TEST_P(GoldenTraceVariant, DigestIsPinned) {
  const auto scheduler = GetParam().make();
  const std::uint64_t digest = quickstart_digest(*scheduler);
  EXPECT_EQ(digest, GetParam().digest)
      << GetParam().name << " quickstart trace digest changed; new digest: 0x" << std::hex
      << digest;
}

INSTANTIATE_TEST_SUITE_P(Quickstart, GoldenTraceVariant, ::testing::ValuesIn(kGoldenVariants),
                         [](const ::testing::TestParamInfo<GoldenVariant>& variant_info) {
                           return std::string(variant_info.param.name);
                         });

TEST(GoldenTrace, QuickstartStreamSurvivesJsonlRoundTripAndReplay) {
  RecordBufferSink buffer;
  std::ostringstream out;
  JsonlSink jsonl(out);
  MultiSink both({&buffer, &jsonl});
  run_quickstart_ones(both);
  // The serialized stream parses back to the identical record sequence...
  EXPECT_EQ(parse_jsonl(out.str()), buffer.records());
  // ...and passes the structural invariant checker in both forms.
  const TraceReplayer replayer;
  const ReplayReport from_records = replayer.check(buffer.records());
  EXPECT_TRUE(from_records.ok()) << from_records.to_string();
  const ReplayReport from_jsonl = replayer.check_jsonl(out.str());
  EXPECT_TRUE(from_jsonl.ok()) << from_jsonl.to_string();
  EXPECT_EQ(from_jsonl.records, buffer.records().size());
}

TEST(ChromeSink, ProducesParseableTraceEventJson) {
  std::ostringstream out;
  {
    ChromeTraceSink chrome(out);
    RecordBufferSink buffer;
    MultiSink both({&chrome, &buffer});
    run_quickstart_ones(both);
    chrome.close();
  }
  const JsonValue v = parse_json(out.str());
  ASSERT_EQ(v.kind, JsonValue::Kind::Object);
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::Array);
  EXPECT_GT(events->array.size(), 100u);
  // Every event carries the mandatory phase field.
  for (const auto& e : events->array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::Object);
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->kind, JsonValue::Kind::String);
  }
}

TEST(ChromeSink, RejectsRecordsAfterClose) {
  std::ostringstream out;
  ChromeTraceSink chrome(out);
  chrome.close();
  EXPECT_THROW(chrome.on_record(full_record()), std::logic_error);
}

class TempTraceDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ones-trace-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

using RunTraceWriterTest = TempTraceDir;

TEST_F(RunTraceWriterTest, PublishesBothFilesOnlyOnClose) {
  const fs::path jsonl = dir_ / "run.jsonl";
  const fs::path chrome = dir_ / "run.trace.json";
  {
    RunTraceWriter writer(dir_.string(), "run");
    writer.on_record(full_record());
    // Still streaming: the final names must not exist yet (atomic publish).
    EXPECT_FALSE(fs::exists(jsonl));
    EXPECT_FALSE(fs::exists(chrome));
    writer.close();
    EXPECT_TRUE(fs::exists(jsonl));
    EXPECT_TRUE(fs::exists(chrome));
  }
  std::ifstream in(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(record_from_jsonl_line(line), full_record());
  EXPECT_FALSE(std::getline(in, line));  // exactly one record
}

TEST_F(RunTraceWriterTest, UnclosedWriterLeavesNoFile) {
  {
    RunTraceWriter writer(dir_.string(), "run");
    writer.on_record(full_record());
  }
  // Neither the final names nor the temp files: an unfinished run is gone.
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST(ProtocolPhaseHook, ScalingSessionMilestonesBecomeRecords) {
  sim::SimEngine engine;
  cluster::TopologyConfig tc;
  tc.num_nodes = 2;
  tc.gpus_per_node = 4;
  const cluster::Topology topo(tc);
  const auto& profile = model::profile_by_name("ResNet50");
  elastic::ScalingRequest request;
  request.job = 5;
  request.old_workers = {0, 1};
  request.new_workers = {0, 1, 2, 3};
  request.old_global_batch = 256;
  request.new_global_batch = 512;
  elastic::ScalingReport report;
  bool done = false;
  elastic::ScalingSession session(engine, profile, topo, elastic::CostConfig{},
                                  request, [&](const elastic::ScalingReport& r) {
                                    report = r;
                                    done = true;
                                  });
  RecordBufferSink buffer;
  session.set_phase_hook(protocol_phase_hook(buffer, request.job));
  session.start();
  engine.run();
  ASSERT_TRUE(done);
  // One ProtocolPhase record per timeline entry, same order, same job.
  ASSERT_EQ(buffer.records().size(), report.timeline.size());
  ASSERT_GE(buffer.records().size(), 4u);  // Fig 12 has >= 4 milestones
  double prev_t = 0.0;
  for (const auto& r : buffer.records()) {
    EXPECT_EQ(r.kind, RecordKind::ProtocolPhase);
    EXPECT_EQ(r.job, request.job);
    EXPECT_FALSE(r.detail.empty());
    EXPECT_GE(r.t, prev_t);
    prev_t = r.t;
  }
  EXPECT_EQ(buffer.records().back().t, report.resumed_at);
}

}  // namespace
}  // namespace ones::trace
