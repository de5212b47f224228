// Unit tests for src/cluster: topology, assignments (Eq. 1/2 mapping),
// invariants (Eq. 4 style), and schedule diffing.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"

namespace ones::cluster {
namespace {

// Held on purpose, not for tidiness: perfbench's `ones_32gpu` set-up time
// follows the size of the schedule objects it frees, through glibc's heap
// trimming (ROADMAP item 5), although set-up runs no Assignment code that
// changed. One extra vector member made set-up about 5x slower. Delete
// this once perfbench pins the allocator's trim and mmap thresholds.
static_assert(sizeof(Assignment) == 128,
              "Assignment changed size: re-measure perfbench setup_s (ROADMAP item 5)");

template <typename T>
std::vector<T> as_vector(std::span<const T> view) {
  return {view.begin(), view.end()};
}

TopologyConfig small_config() {
  TopologyConfig c;
  c.num_nodes = 4;
  c.gpus_per_node = 4;
  return c;
}

TEST(Topology, Counts) {
  Topology t(small_config());
  EXPECT_EQ(t.total_gpus(), 16);
  EXPECT_EQ(t.num_nodes(), 4);
  EXPECT_EQ(t.gpus_per_node(), 4);
}

TEST(Topology, NodeOfMapsDensely) {
  Topology t(small_config());
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.node_of(15), 3);
  EXPECT_THROW(t.node_of(16), std::logic_error);
  EXPECT_THROW(t.node_of(-1), std::logic_error);
}

TEST(Topology, GpusOfNode) {
  Topology t(small_config());
  EXPECT_EQ(t.gpus_of(2), (std::vector<GpuId>{8, 9, 10, 11}));
}

TEST(Topology, NodesSpanned) {
  Topology t(small_config());
  EXPECT_EQ(t.nodes_spanned(std::vector<GpuId>{0, 1, 2}), 1);
  EXPECT_EQ(t.nodes_spanned(std::vector<GpuId>{0, 4}), 2);
  EXPECT_EQ(t.nodes_spanned(std::vector<GpuId>{0, 5, 10, 15}), 4);
}

TEST(Topology, LinkProfileSelectsSlowestSegment) {
  Topology t(small_config());
  const auto intra = t.link_profile(std::vector<GpuId>{0, 1});
  const auto inter = t.link_profile(std::vector<GpuId>{0, 4});
  EXPECT_GT(intra.bandwidth_Bps, inter.bandwidth_Bps);
  EXPECT_LT(intra.latency_s, inter.latency_s);
  EXPECT_DOUBLE_EQ(intra.bandwidth_Bps, small_config().intra_node_bw_Bps);
  EXPECT_DOUBLE_EQ(inter.bandwidth_Bps, small_config().inter_node_bw_Bps);
}

TEST(Assignment, StartsEmpty) {
  Assignment a(8);
  EXPECT_EQ(a.num_gpus(), 8);
  EXPECT_EQ(a.idle_count(), 8);
  EXPECT_TRUE(a.running_jobs().empty());
}

TEST(Assignment, PlaceAndDerivedViews) {
  Assignment a(8);
  a.place(0, 1, 64);
  a.place(1, 1, 64);
  a.place(5, 2, 32);
  // Eq. 2: B_j = sum of local batches, c_j = worker count.
  EXPECT_EQ(a.global_batch(1), 128);
  EXPECT_EQ(a.gpu_count(1), 2);
  EXPECT_EQ(a.global_batch(2), 32);
  EXPECT_EQ(a.gpu_count(2), 1);
  EXPECT_EQ(as_vector(a.gpus_of(1)), (std::vector<GpuId>{0, 1}));
  EXPECT_EQ(as_vector(a.running_jobs()), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(a.idle_count(), 5);
}

TEST(Assignment, UnplacedJobHasZeroBatchAndGpus) {
  Assignment a(4);
  EXPECT_EQ(a.global_batch(42), 0);
  EXPECT_EQ(a.gpu_count(42), 0);
}

TEST(Assignment, PlaceOverwrites) {
  Assignment a(4);
  a.place(0, 1, 64);
  a.place(0, 2, 32);  // preempt job 1 on this GPU
  EXPECT_EQ(a.slot(0).job, 2);
  EXPECT_EQ(a.gpu_count(1), 0);
}

TEST(Assignment, ClearAndEvict) {
  Assignment a(4);
  a.place(0, 1, 64);
  a.place(1, 1, 64);
  a.place(2, 2, 32);
  a.clear(0);
  EXPECT_EQ(a.gpu_count(1), 1);
  EXPECT_EQ(a.evict(1), 1);
  EXPECT_EQ(a.gpu_count(1), 0);
  EXPECT_EQ(a.evict(1), 0);  // idempotent
  EXPECT_EQ(a.gpu_count(2), 1);
}

TEST(Assignment, SetLocalBatch) {
  Assignment a(2);
  a.place(0, 1, 64);
  a.set_local_batch(0, 128);
  EXPECT_EQ(a.global_batch(1), 128);
  EXPECT_THROW(a.set_local_batch(1, 32), std::logic_error);  // idle GPU
}

TEST(Assignment, RejectsInvalidPlacement) {
  Assignment a(2);
  EXPECT_THROW(a.place(0, kInvalidJob, 16), std::logic_error);
  EXPECT_THROW(a.place(0, 1, 0), std::logic_error);   // empty worker
  EXPECT_THROW(a.place(5, 1, 16), std::logic_error);  // out of range
}

TEST(Assignment, RunningJobsFirstOccurrenceOrder) {
  Assignment a(6);
  a.place(0, 7, 8);
  a.place(1, 3, 8);
  a.place(2, 7, 8);
  a.place(3, 5, 8);
  EXPECT_EQ(as_vector(a.running_jobs()), (std::vector<JobId>{7, 3, 5}));
}

TEST(Assignment, EqualityAndToString) {
  Assignment a(3), b(3);
  a.place(0, 1, 16);
  b.place(0, 1, 16);
  EXPECT_EQ(a, b);
  b.place(2, 2, 8);
  EXPECT_NE(a, b);
  EXPECT_EQ(b.to_string(), "[1:16 - 2:8]");
}

TEST(Assignment, CheckInvariantsPasses) {
  Assignment a(4);
  a.place(0, 1, 16);
  EXPECT_NO_THROW(a.check_invariants());
}

TEST(Assignment, FromSlotsMatchesPlaceByPlaceConstruction) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    std::vector<Slot> slots(static_cast<std::size_t>(n));
    Assignment placed(n);
    for (int g = 0; g < n; ++g) {
      Slot& s = slots[static_cast<std::size_t>(g)];
      const std::int64_t roll = rng.uniform_int(0, 9);
      if (roll == 0) {
        s.health = SlotHealth::Failed;
      } else if (roll == 1) {
        s.health = SlotHealth::Reclaimed;
      } else if (roll < 7) {
        s.job = static_cast<JobId>(rng.uniform_int(0, 5));
        s.local_batch = static_cast<int>(rng.uniform_int(1, 64));
        placed.place(g, s.job, s.local_batch);
      }
      if (!s.healthy()) placed.set_health(g, s.health);
    }
    const Assignment bulk = Assignment::from_slots(slots);
    EXPECT_EQ(bulk, placed) << bulk.to_string() << " vs " << placed.to_string();
    bulk.audit_indexes();
    EXPECT_EQ(bulk.unhealthy_gpus(), placed.unhealthy_gpus());
    EXPECT_EQ(as_vector(bulk.idle_gpus()), as_vector(placed.idle_gpus()));
    EXPECT_EQ(as_vector(bulk.running_jobs()), as_vector(placed.running_jobs()));
    for (JobId j = 0; j <= 5; ++j) {
      EXPECT_EQ(as_vector(bulk.gpus_of(j)), as_vector(placed.gpus_of(j)));
      EXPECT_EQ(bulk.global_batch(j), placed.global_batch(j));
    }
  }
}

TEST(Assignment, EmptyLikeKeepsTheHealthMap) {
  Assignment a(6);
  a.place(0, 1, 8);
  a.set_health(2, SlotHealth::Failed);
  a.set_health(4, SlotHealth::Reclaimed);
  const Assignment e = Assignment::empty_like(a);
  EXPECT_TRUE(e.running_jobs().empty());
  EXPECT_EQ(e.health(2), SlotHealth::Failed);
  EXPECT_EQ(e.health(4), SlotHealth::Reclaimed);
  EXPECT_EQ(e.unhealthy_gpus(), (std::vector<GpuId>{2, 4}));
  EXPECT_EQ(as_vector(e.idle_gpus()), (std::vector<GpuId>{0, 1, 3, 5}));
  e.audit_indexes();
}

TEST(Assignment, FromSlotsRejectsWhatPlaceRejects) {
  std::vector<Slot> down_worker(4);
  down_worker[1] = Slot{3, 8, SlotHealth::Failed};
  EXPECT_THROW(Assignment::from_slots(down_worker), std::logic_error);

  std::vector<Slot> empty_worker(4);
  empty_worker[2] = Slot{3, 0, SlotHealth::Healthy};
  EXPECT_THROW(Assignment::from_slots(empty_worker), std::logic_error);

  std::vector<Slot> idle_batch(4);
  idle_batch[0] = Slot{kInvalidJob, 16, SlotHealth::Healthy};
  EXPECT_THROW(Assignment::from_slots(idle_batch), std::logic_error);
}

TEST(AssignmentDiff, ClassifiesChanges) {
  Assignment prev(6), next(6);
  prev.place(0, 1, 16);  // job 1: unchanged
  next.place(0, 1, 16);
  prev.place(1, 2, 16);  // job 2: stopped
  next.place(2, 3, 16);  // job 3: started
  prev.place(3, 4, 16);  // job 4: moved GPU (reconfigured)
  next.place(4, 4, 16);
  prev.place(5, 5, 16);  // job 5: batch changed (reconfigured)
  next.place(5, 5, 32);

  const auto d = diff(prev, next);
  EXPECT_EQ(d.unchanged, (std::vector<JobId>{1}));
  EXPECT_EQ(d.stopped, (std::vector<JobId>{2}));
  EXPECT_EQ(d.started, (std::vector<JobId>{3}));
  ASSERT_EQ(d.reconfigured.size(), 2u);
  EXPECT_TRUE((d.reconfigured == std::vector<JobId>{4, 5}) ||
              (d.reconfigured == std::vector<JobId>{5, 4}));
}

TEST(AssignmentDiff, GrowingWorkerSetIsReconfigured) {
  Assignment prev(4), next(4);
  prev.place(0, 1, 32);
  next.place(0, 1, 16);
  next.place(1, 1, 16);
  const auto d = diff(prev, next);
  EXPECT_EQ(d.reconfigured, (std::vector<JobId>{1}));
  EXPECT_TRUE(d.started.empty());
  EXPECT_TRUE(d.stopped.empty());
}

TEST(AssignmentDiff, RequiresSameClusterSize) {
  Assignment a(2), b(3);
  EXPECT_THROW(diff(a, b), std::logic_error);
}

}  // namespace
}  // namespace ones::cluster
