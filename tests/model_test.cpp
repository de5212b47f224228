// Unit tests for src/model: the task catalog, the throughput model (incl.
// the Fig 2 shape) and the convergence dynamics (incl. Fig 3 / Fig 13 / 14
// shapes and the §4.1 termination rule).
#include <gtest/gtest.h>

#include <cmath>

#include "model/convergence.hpp"
#include "model/task.hpp"
#include "model/throughput.hpp"

namespace ones::model {
namespace {

cluster::LinkProfile nvlink() { return {130.0e9, 5e-6}; }
cluster::LinkProfile infiniband() { return {12.0e9, 2.5e-5}; }

TEST(TaskCatalog, ContainsAllTable2Models) {
  for (const char* name : {"AlexNet", "ResNet50", "VGG16", "InceptionV3", "ResNet18",
                           "VGG16-CIFAR", "GoogleNet", "BERT", "ResNet50-CIFAR"}) {
    EXPECT_NO_THROW(profile_by_name(name)) << name;
  }
  EXPECT_THROW(profile_by_name("GPT-7"), std::logic_error);
}

TEST(TaskCatalog, ProfilesAreSane) {
  for (const auto& p : builtin_profiles()) {
    EXPECT_GT(p.params_bytes, 0.0) << p.name;
    EXPECT_GT(p.t_sample_s, 0.0) << p.name;
    EXPECT_GE(p.max_local_batch, p.min_util_batch) << p.name;
    EXPECT_GT(p.b_crit, 0.0) << p.name;
    EXPECT_LT(p.target_accuracy, p.accuracy_ceiling) << p.name;
    EXPECT_GT(p.init_loss, p.final_loss) << p.name;
    // The reference batch must fit on one GPU or on a small worker group.
    EXPECT_LE(p.b_ref, 4 * p.max_local_batch) << p.name;
  }
}

TEST(Throughput, EvenSplitDistributesRemainder) {
  EXPECT_EQ(even_share(10, 3, 0), 4);
  EXPECT_EQ(even_share(10, 3, 1), 3);
  EXPECT_EQ(even_share(10, 3, 2), 3);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(even_share(8, 4, i), 2);
  // A worker with no sample.
  EXPECT_THROW(step_time_even_s(profile_by_name("ResNet18"), 2, 3, nvlink()),
               std::logic_error);
}

TEST(Throughput, SingleWorkerHasNoCommCost) {
  const auto& p = profile_by_name("ResNet18");
  const double t1 = step_time_even_s(p, 256, 1, nvlink());
  const double expected = p.t_step_fixed_s + 256 * p.t_sample_s;
  EXPECT_NEAR(t1, expected, 1e-12);
}

TEST(Throughput, CommCostGrowsWithWorkersAndShrinksWithBandwidth) {
  const auto& p = profile_by_name("ResNet50");
  const double t2 = step_time_even_s(p, 512, 2, nvlink());
  const double t2_ib = step_time_even_s(p, 512, 2, infiniband());
  EXPECT_GT(t2_ib, t2);  // slower fabric, slower step
}

TEST(Throughput, LaunchBoundFloor) {
  const auto& p = profile_by_name("ResNet18");  // min_util_batch = 128
  // Local batches 32 and 128 cost the same compute (floor), so the 4-worker
  // and 16-worker step times differ only in comm.
  const double t_small = step_time_even_s(p, 128, 4, nvlink());
  const double t_floor = step_time_even_s(p, 512, 4, nvlink());
  EXPECT_NEAR(t_small, t_floor, 1e-12);
}

// The paper's Figure 2: with a FIXED global batch, throughput stops scaling
// past ~2 workers and drops across nodes; with an ELASTIC batch (B grows
// with the workers), throughput keeps increasing.
TEST(Throughput, Fig2FixedBatchStopsScaling) {
  const auto& p = profile_by_name("ResNet50-CIFAR");
  const double x1 = throughput_even_sps(p, 256, 1, nvlink());
  const double x2 = throughput_even_sps(p, 256, 2, nvlink());
  const double x4 = throughput_even_sps(p, 256, 4, nvlink());
  const double x8 = throughput_even_sps(p, 256, 8, infiniband());
  EXPECT_GT(x2, x1);               // 1 -> 2 still helps
  EXPECT_LT(x4 / x2, 1.10);        // past 2: flat (within 10%)
  EXPECT_LT(x8, x2);               // across nodes: drops
}

TEST(Throughput, Fig2ElasticBatchKeepsScaling) {
  const auto& p = profile_by_name("ResNet50-CIFAR");
  const double x1 = throughput_even_sps(p, 256, 1, nvlink());
  const double x2 = throughput_even_sps(p, 512, 2, nvlink());
  const double x4 = throughput_even_sps(p, 1024, 4, nvlink());
  const double x8 = throughput_even_sps(p, 2048, 8, infiniband());
  EXPECT_GT(x2, 1.5 * x1);
  EXPECT_GT(x4, 1.5 * x2);
  EXPECT_GT(x8, 1.2 * x4);
}

TEST(Throughput, RejectsEmptyAndZeroBatches) {
  const auto& p = profile_by_name("ResNet18");
  const cluster::Topology topo{cluster::TopologyConfig{}};
  const cluster::Assignment empty(topo.total_gpus());
  EXPECT_THROW(read_placed(empty, topo, 1), std::logic_error);
  EXPECT_THROW(step_time_shape_s(p, 1, 0, nvlink()), std::logic_error);
}

TEST(Throughput, ReadPlacedGathersTheStepShape) {
  const cluster::Topology topo{cluster::TopologyConfig{}};  // 4 GPUs per node
  cluster::Assignment a(topo.total_gpus());
  a.place(5, 1, 3);
  a.place(1, 1, 7);
  a.place(2, 1, 2);
  const PlacedJob placed = read_placed(a, topo, 1);
  EXPECT_EQ(placed.workers(), 3);
  EXPECT_EQ(placed.global_batch, 12);
  EXPECT_EQ(placed.largest_batch, 7);
  EXPECT_EQ(placed.link.bandwidth_Bps, topo.config().inter_node_bw_Bps);
  a.place(5, 2, 3);  // job 1 now sits on node 0 only
  EXPECT_EQ(read_placed(a, topo, 1).link.bandwidth_Bps, topo.config().intra_node_bw_Bps);
}

ConvergenceConfig quiet_config() {
  ConvergenceConfig c;
  c.accuracy_noise = 0.0;  // deterministic for unit tests
  return c;
}

TEST(Convergence, EfficiencyIsOneAtReferenceBatch) {
  const auto& p = profile_by_name("ResNet18");
  TrainDynamics d(p, 20000, quiet_config(), 1);
  EXPECT_NEAR(d.efficiency(p.b_ref), 1.0, 1e-12);
}

TEST(Convergence, EfficiencyDecaysAboveCriticalBatch) {
  const auto& p = profile_by_name("ResNet18");  // b_crit = 512
  TrainDynamics d(p, 20000, quiet_config(), 1);
  EXPECT_GT(d.efficiency(128), d.efficiency(512));
  EXPECT_GT(d.efficiency(512), d.efficiency(2048));
  // Gradient-noise-scale law: N(B) ~ 1 + B/B_crit.
  const double ratio = d.efficiency(256) / d.efficiency(2048);
  EXPECT_NEAR(ratio, (1.0 + 2048.0 / 512.0) / (1.0 + 256.0 / 512.0), 1e-9);
}

TEST(Convergence, NoLrScalingAblationIsWorse) {
  const auto& p = profile_by_name("ResNet18");
  ConvergenceConfig with = quiet_config();
  ConvergenceConfig without = quiet_config();
  without.lr_linear_scaling = false;
  TrainDynamics d_with(p, 20000, with, 1);
  TrainDynamics d_without(p, 20000, without, 1);
  EXPECT_LT(d_without.efficiency(1024), d_with.efficiency(1024));
  EXPECT_NEAR(d_without.efficiency(p.b_ref), d_with.efficiency(p.b_ref), 1e-12);
}

TEST(Convergence, ReachesTargetAtReferenceEpochCount) {
  const auto& p = profile_by_name("ResNet18");
  TrainDynamics d(p, 20000, quiet_config(), 1);
  const int ref_epochs = static_cast<int>(p.epochs_to_target_ref);
  for (int e = 0; e < ref_epochs - 1; ++e) d.advance(p.b_ref, 20000);
  EXPECT_LT(d.current_accuracy(), p.target_accuracy);
  d.advance(p.b_ref, 20000);
  EXPECT_GE(d.current_accuracy(), p.target_accuracy - 1e-9);
}

TEST(Convergence, TerminationNeedsTenConsecutiveEpochs) {
  const auto& p = profile_by_name("ResNet18");
  TrainDynamics d(p, 20000, quiet_config(), 1);
  int epochs = 0;
  while (!d.converged()) {
    d.advance(p.b_ref, 20000);
    ++epochs;
    ASSERT_LT(epochs, 100);
  }
  // The epoch that first reaches the target counts as the first of the 10
  // consecutive epochs, so: epochs_to_target + patience - 1.
  EXPECT_EQ(epochs, static_cast<int>(p.epochs_to_target_ref) + 10 - 1);
}

// Figure 3: fixed local batch 256 with more GPUs => larger global batch =>
// fewer epochs' worth of progress per epoch => visibly slower convergence
// beyond 2 workers.
TEST(Convergence, Fig3MoreGpusFixedLocalBatchConvergesSlower) {
  const auto& p = profile_by_name("ResNet50-CIFAR");
  auto epochs_to_converge = [&](int gpus) {
    TrainDynamics d(p, 20000, quiet_config(), 1);
    int epochs = 0;
    while (!d.converged() && epochs < 500) {
      d.advance(256 * gpus, 20000);
      ++epochs;
    }
    return epochs;
  };
  const int e1 = epochs_to_converge(1);
  const int e2 = epochs_to_converge(2);
  const int e4 = epochs_to_converge(4);
  const int e8 = epochs_to_converge(8);
  EXPECT_LE(e1, e2);
  EXPECT_LT(e2, e4);
  EXPECT_LT(e4, e8);
  EXPECT_GT(e8, e1 + 10);  // clearly slower, not a rounding artifact
}

// Figure 13: an abrupt 256 -> 4096 rescale spikes the training loss and
// depresses accuracy; recovery takes several epochs.
TEST(Convergence, Fig13AbruptScalingSpikesLoss) {
  const auto& p = profile_by_name("ResNet50-CIFAR");
  TrainDynamics d(p, 20000, quiet_config(), 1);
  for (int e = 0; e < 10; ++e) d.advance(256, 20000);
  const double loss_before = d.current_loss();
  d.on_batch_resize(256, 4096);
  EXPECT_GT(d.disturbance(), 0.0);
  const double loss_after = d.current_loss();
  EXPECT_GT(loss_after, loss_before + 0.5);
  // Recovery: disturbance decays as epochs pass.
  for (int e = 0; e < 6; ++e) d.advance(4096, 20000);
  EXPECT_LT(d.disturbance(), 0.1);
}

// Figure 14: gradual growth (one doubling at a time) never spikes.
TEST(Convergence, Fig14GradualScalingIsSmooth) {
  const auto& p = profile_by_name("ResNet50-CIFAR");
  TrainDynamics d(p, 20000, quiet_config(), 1);
  int batch = 256;
  for (int step = 0; step < 4; ++step) {
    d.advance(batch, 20000);
    d.on_batch_resize(batch, batch * 2);
    batch *= 2;
    EXPECT_DOUBLE_EQ(d.disturbance(), 0.0) << "doubling must not disturb";
  }
}

TEST(Convergence, ShrinkingBatchIsBenign) {
  const auto& p = profile_by_name("ResNet18");
  TrainDynamics d(p, 20000, quiet_config(), 1);
  d.on_batch_resize(2048, 256);
  EXPECT_DOUBLE_EQ(d.disturbance(), 0.0);
}

TEST(Convergence, DisturbanceSlowsProgress) {
  const auto& p = profile_by_name("ResNet18");
  TrainDynamics a(p, 20000, quiet_config(), 1);
  TrainDynamics b(p, 20000, quiet_config(), 1);
  b.on_batch_resize(256, 4096);  // inject a spike into b only
  a.advance(256, 20000);
  b.advance(256, 20000);
  EXPECT_GT(a.progress(), b.progress());
}

TEST(Convergence, OracleRemainingSamplesDecreasesAndHitsZero) {
  const auto& p = profile_by_name("ResNet18");
  TrainDynamics d(p, 20000, quiet_config(), 1);
  const double r0 = d.oracle_remaining_samples(p.b_ref);
  d.advance(p.b_ref, 20000);
  const double r1 = d.oracle_remaining_samples(p.b_ref);
  EXPECT_LT(r1, r0);
  while (!d.converged()) d.advance(p.b_ref, 20000);
  EXPECT_DOUBLE_EQ(d.oracle_remaining_samples(p.b_ref), 0.0);
}

TEST(Convergence, PartialEpochAdvancesAreConsistent) {
  const auto& p = profile_by_name("ResNet18");
  TrainDynamics whole(p, 20000, quiet_config(), 1);
  TrainDynamics parts(p, 20000, quiet_config(), 1);
  whole.advance(256, 20000);
  for (int i = 0; i < 4; ++i) parts.advance(256, 5000);
  EXPECT_NEAR(whole.progress(), parts.progress(), 1e-9);
  EXPECT_NEAR(whole.samples_processed(), parts.samples_processed(), 1e-9);
}

TEST(Convergence, AccuracyNoiseIsSeedDeterministic) {
  const auto& p = profile_by_name("ResNet18");
  ConvergenceConfig c;  // default noise
  TrainDynamics a(p, 20000, c, 42), b(p, 20000, c, 42);
  for (int e = 0; e < 5; ++e) {
    const auto ra = a.advance(256, 20000);
    const auto rb = b.advance(256, 20000);
    EXPECT_DOUBLE_EQ(ra.val_accuracy, rb.val_accuracy);
  }
}

}  // namespace
}  // namespace ones::model
