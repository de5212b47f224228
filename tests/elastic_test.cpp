// Unit tests for src/elastic: the scaling cost models (Fig 16 shape) and
// the discrete-event scaling protocol (Figs 11/12 flow).
#include <gtest/gtest.h>

#include "cluster/topology.hpp"
#include "elastic/cost_model.hpp"
#include "elastic/protocol.hpp"
#include "model/task.hpp"
#include "sim/engine.hpp"

namespace ones::elastic {
namespace {

cluster::Topology small_topology() {
  cluster::TopologyConfig c;
  c.num_nodes = 2;
  c.gpus_per_node = 4;
  return cluster::Topology(c);
}

cluster::LinkProfile nvlink() { return {130.0e9, 5e-6}; }

TEST(CostModel, ElasticCostIsAboutASecond) {
  ScalingCostModel m;
  for (const auto& p : model::builtin_profiles()) {
    const double cost = m.elastic_cost_s(p, 2, 4, nvlink());
    EXPECT_GT(cost, 0.1) << p.name;
    EXPECT_LT(cost, 3.0) << p.name;  // "basically around 1 second" (§4.3)
  }
}

TEST(CostModel, CheckpointCostIsTensOfSeconds) {
  ScalingCostModel m;
  for (const auto& p : model::builtin_profiles()) {
    const double cost = m.checkpoint_cost_s(p, 4);
    EXPECT_GT(cost, 15.0) << p.name;   // "greater than 20 seconds" for most
    EXPECT_LT(cost, 120.0) << p.name;
  }
}

TEST(CostModel, CheckpointDwarfsElastic) {
  // The headline of Fig 16: at least an order of magnitude apart.
  ScalingCostModel m;
  for (const auto& p : model::builtin_profiles()) {
    EXPECT_GT(m.checkpoint_cost_s(p, 4) / m.elastic_cost_s(p, 2, 4, nvlink()), 10.0)
        << p.name;
  }
}

TEST(CostModel, BiggerModelsCostMoreToCheckpoint) {
  ScalingCostModel m;
  const auto& vgg = model::profile_by_name("VGG16");       // 552 MB
  const auto& gnet = model::profile_by_name("GoogleNet");  // 26 MB
  EXPECT_GT(m.checkpoint_cost_s(vgg, 2), m.checkpoint_cost_s(gnet, 2));
}

TEST(CostModel, GrowingChargesBroadcastShrinkingDoesNot) {
  ScalingCostModel m;
  const auto& p = model::profile_by_name("VGG16");
  const double grow = m.elastic_cost_s(p, 2, 4, nvlink());
  const double shrink = m.elastic_cost_s(p, 4, 2, nvlink());
  EXPECT_GT(grow, shrink);
}

TEST(CostModel, ColdStartBetweenElasticAndCheckpoint) {
  ScalingCostModel m;
  const auto& p = model::profile_by_name("ResNet50");
  const double cold = m.cold_start_cost_s(p);
  EXPECT_GT(cold, m.elastic_cost_s(p, 1, 1, nvlink()));
  EXPECT_LT(cold, m.checkpoint_cost_s(p, 1));
}

ScalingRequest grow_request() {
  ScalingRequest r;
  r.job = 1;
  r.old_workers = {0, 1};
  r.new_workers = {0, 1, 2, 3};
  r.old_global_batch = 512;
  r.new_global_batch = 1024;
  return r;
}

TEST(Protocol, ElasticSessionPhasesAreOrdered) {
  sim::SimEngine engine;
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("ResNet50");
  ScalingReport report;
  bool done = false;
  ScalingSession session(engine, p, topo, CostConfig{}, grow_request(),
                         [&](const ScalingReport& r) {
                           report = r;
                           done = true;
                         });
  session.start();
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_LE(report.started_at, report.new_workers_ready_at);
  EXPECT_LE(report.new_workers_ready_at, report.paused_at);
  EXPECT_LT(report.paused_at, report.resumed_at);
  EXPECT_DOUBLE_EQ(report.blocked_s, report.resumed_at - report.paused_at);
  EXPECT_FALSE(report.timeline.empty());
}

TEST(Protocol, BackgroundInitOverlapsTraining) {
  // The job is only blocked from pause to resume; the (much longer) new
  // worker initialization overlaps with training (Fig 12).
  sim::SimEngine engine;
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("BERT");  // heavyweight init
  ScalingReport report;
  ScalingSession session(engine, p, topo, CostConfig{}, grow_request(),
                         [&](const ScalingReport& r) { report = r; });
  session.start();
  engine.run();
  EXPECT_LT(report.blocked_s, 2.5);
  EXPECT_GT(report.total_s, report.blocked_s * 2.0);
}

TEST(Protocol, ShrinkSkipsInitAndBroadcast) {
  sim::SimEngine engine;
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("ResNet50");
  ScalingRequest r;
  r.job = 1;
  r.old_workers = {0, 1, 2, 3};
  r.new_workers = {0, 1};
  r.old_global_batch = 1024;
  r.new_global_batch = 512;
  ScalingReport report;
  ScalingSession session(engine, p, topo, CostConfig{}, r,
                         [&](const ScalingReport& rep) { report = rep; });
  session.start();
  engine.run();
  // No background init: the session starts draining immediately.
  EXPECT_DOUBLE_EQ(report.new_workers_ready_at, report.started_at);
  EXPECT_LT(report.blocked_s, 1.5);
}

TEST(Protocol, CheckpointMigrationBlocksEndToEnd) {
  sim::SimEngine engine;
  const auto& p = model::profile_by_name("VGG16");
  const auto report = run_checkpoint_migration(engine, p, CostConfig{}, grow_request());
  EXPECT_DOUBLE_EQ(report.blocked_s, report.total_s);
  EXPECT_GT(report.blocked_s, 20.0);
  EXPECT_GE(report.timeline.size(), 5u);
}

TEST(Protocol, ElasticBlockedMatchesCostModelScale) {
  // The fast cost model and the event-by-event protocol must agree on the
  // order of magnitude of blocked time.
  sim::SimEngine engine;
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("ResNet50");
  ScalingCostModel m;
  ScalingReport report;
  ScalingSession session(engine, p, topo, CostConfig{}, grow_request(),
                         [&](const ScalingReport& r) { report = r; });
  session.start();
  engine.run();
  const double model_cost = m.elastic_cost_s(p, 2, 4, topo.link_profile(std::vector<GpuId>{0, 1, 2, 3}));
  EXPECT_LT(std::abs(report.blocked_s - model_cost), 1.0);
}

TEST(Protocol, PhaseNamesAreStable) {
  EXPECT_STREQ(phase_name(WorkerPhase::Idle), "idle");
  EXPECT_STREQ(phase_name(WorkerPhase::Training), "training");
  EXPECT_STREQ(phase_name(WorkerPhase::Running), "running");
}

/// Run `request` to completion with no losses and return the report — the
/// reference timing the worker-loss tests schedule against.
ScalingReport clean_run(const ScalingRequest& request,
                        const model::TaskProfile& p = model::profile_by_name("ResNet50")) {
  sim::SimEngine engine;
  const auto topo = small_topology();
  ScalingReport report;
  ScalingSession session(engine, p, topo, CostConfig{}, request,
                         [&](const ScalingReport& r) { report = r; });
  session.start();
  engine.run();
  return report;
}

/// Run `request` with one worker lost at `when`, asserting the session is in
/// `expected_phase` at the loss.
ScalingReport lossy_run(const ScalingRequest& request, GpuId lost, double when,
                        ScalingSession::SessionPhase expected_phase) {
  sim::SimEngine engine;
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("ResNet50");
  ScalingReport report;
  bool done = false;
  ScalingSession session(engine, p, topo, CostConfig{}, request,
                         [&](const ScalingReport& r) {
                           report = r;
                           done = true;
                         });
  session.start();
  engine.schedule_at(when, [&] {
    EXPECT_EQ(session.phase(), expected_phase);
    session.on_worker_lost(lost);
  });
  engine.run();
  EXPECT_TRUE(done);
  return report;
}

TEST(ProtocolWorkerLoss, LossDuringDrainDropsWorkerAndConverges) {
  const auto clean = clean_run(grow_request());
  // Mid-drain: after the new workers are ready, before the pause lands.
  const double when = 0.5 * (clean.new_workers_ready_at + clean.paused_at);
  const auto report = lossy_run(grow_request(), /*lost=*/3, when,
                                ScalingSession::SessionPhase::Draining);
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(report.workers_lost, 1);
  // The survivors' reconnect has one fewer worker, so the session can only
  // resume at or before the clean run.
  EXPECT_LE(report.resumed_at, clean.resumed_at);
  EXPECT_GT(report.resumed_at, report.paused_at);
}

TEST(ProtocolWorkerLoss, LossDuringReconnectReformsTopology) {
  const auto clean = clean_run(grow_request());
  // Just after the pause: the reconnect stage is in flight.
  const double when = clean.paused_at + 1e-3;
  const auto report = lossy_run(grow_request(), /*lost=*/2, when,
                                ScalingSession::SessionPhase::Reconnecting);
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(report.workers_lost, 1);
  bool reformed = false;
  for (const auto& line : report.timeline) {
    if (line.find("re-form") != std::string::npos) reformed = true;
  }
  EXPECT_TRUE(reformed);
  EXPECT_GT(report.resumed_at, report.paused_at);
}

TEST(ProtocolWorkerLoss, LossDuringBroadcastRestartsFromReconnect) {
  const auto clean = clean_run(grow_request());
  // The broadcast is the last stage before resume; land inside it.
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("ResNet50");
  const double bcast =
      p.params_bytes / topo.link_profile(std::vector<GpuId>{0, 1, 2, 3}).bandwidth_Bps;
  const double when = clean.resumed_at - 0.5 * bcast;
  const auto report = lossy_run(grow_request(), /*lost=*/3, when,
                                ScalingSession::SessionPhase::Receiving);
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(report.workers_lost, 1);
  // A near-complete session redoes reconnect + broadcast on the survivors.
  EXPECT_GT(report.resumed_at, clean.resumed_at);
}

TEST(ProtocolWorkerLoss, LosingEveryTargetWorkerRollsBack) {
  sim::SimEngine engine;
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("ResNet50");
  ScalingRequest r;
  r.job = 1;
  r.old_workers = {0, 1, 2, 3};
  r.new_workers = {0, 1};  // pure shrink
  r.old_global_batch = 1024;
  r.new_global_batch = 512;
  ScalingReport report;
  bool done = false;
  ScalingSession session(engine, p, topo, CostConfig{}, r,
                         [&](const ScalingReport& rep) {
                           report = rep;
                           done = true;
                         });
  session.start();
  const double when = 0.05;  // mid-drain (shrink: no init stage)
  engine.schedule_at(when, [&] {
    session.on_worker_lost(0);
    session.on_worker_lost(1);
  });
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.rolled_back);
  EXPECT_EQ(report.workers_lost, 2);
  EXPECT_EQ(session.phase(), ScalingSession::SessionPhase::RolledBack);
  EXPECT_DOUBLE_EQ(report.resumed_at, when);
}

TEST(ProtocolWorkerLoss, UninvolvedGpuLossIsANoOp) {
  const auto clean = clean_run(grow_request());
  const double when = 0.5 * (clean.new_workers_ready_at + clean.paused_at);
  sim::SimEngine engine;
  const auto topo = small_topology();
  const auto& p = model::profile_by_name("ResNet50");
  ScalingReport report;
  ScalingSession session(engine, p, topo, CostConfig{}, grow_request(),
                         [&](const ScalingReport& r) { report = r; });
  session.start();
  engine.schedule_at(when, [&] { session.on_worker_lost(7); });  // not in session
  engine.run();
  EXPECT_EQ(report.workers_lost, 0);
  EXPECT_DOUBLE_EQ(report.resumed_at, clean.resumed_at);
  EXPECT_DOUBLE_EQ(report.blocked_s, clean.blocked_s);
}

TEST(ProtocolWorkerLoss, LossyRunsAreDeterministic) {
  const auto clean = clean_run(grow_request());
  const double when = clean.paused_at + 1e-3;
  const auto a = lossy_run(grow_request(), 2, when,
                           ScalingSession::SessionPhase::Reconnecting);
  const auto b = lossy_run(grow_request(), 2, when,
                           ScalingSession::SessionPhase::Reconnecting);
  EXPECT_DOUBLE_EQ(a.resumed_at, b.resumed_at);
  EXPECT_DOUBLE_EQ(a.blocked_s, b.blocked_s);
  EXPECT_EQ(a.timeline, b.timeline);
}

}  // namespace
}  // namespace ones::elastic
