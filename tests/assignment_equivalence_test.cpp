// Differential harness for the schedule type and the gang placer.
//
// AssignmentEquivalence drives the production cluster::Assignment (one flat
// GPU-list buffer) and the reference (tests/reference_assignment.hpp: a
// sorted idle vector plus one GPU vector per job) through the same seeded op
// stream at 8, 32, 128 and 2,000 GPUs. After every op it compares everything
// a caller can observe: slots, idle and down lists, running_jobs() order,
// every job's views, same_placement and diff against the previous state, and
// then audits the production indexes. Ids no op places (the invalid id, ids
// past the largest, ids between sparse ones) must resolve to nothing. The
// stream runs twice: with dense ids 0..N-1, as simulations number jobs, and
// with ids that are multiples of 1,000, so that the job index's probes
// collide and wrap.
//
// PickIdleGpus compares sched::pick_idle_gpus with the per-node-vector
// version it replaced, kept below, on random idle sets up to 10,000 GPUs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "reference_assignment.hpp"
#include "sched/placement.hpp"

namespace ones::cluster {
namespace {

using testing::ReferenceAssignment;

template <typename T>
std::vector<T> as_vector(std::span<const T> view) {
  return {view.begin(), view.end()};
}

/// One production and one reference schedule, mutated in lock-step.
struct Twin {
  Assignment dut;
  ReferenceAssignment ref;
};

/// The job ids an episode uses: `count` of them, `stride` apart from 0.
struct JobIds {
  JobId count;
  JobId stride;
  JobId at(JobId k) const { return k * stride; }
  JobId draw(Rng& rng) const { return at(rng.uniform_int(0, count - 1)); }
};

/// A job never placed: 0 GPUs, no list, no batch, on both sides.
void expect_absent(const Twin& now, JobId j, const std::string& where) {
  ASSERT_EQ(now.ref.gpu_count(j), 0) << where << ": job " << j;
  ASSERT_EQ(now.dut.gpu_count(j), 0) << where << ": absent job " << j;
  ASSERT_TRUE(now.dut.gpus_of(j).empty()) << where << ": absent job " << j;
  ASSERT_EQ(now.dut.global_batch(j), 0) << where << ": absent job " << j;
}

/// Everything observable must agree; `prev` is the state before the op, so
/// same_placement and diff are checked across a real change.
void expect_same(const Twin& now, const Twin& prev, JobIds ids, const std::string& where) {
  const Assignment& a = now.dut;
  const ReferenceAssignment& r = now.ref;
  ASSERT_EQ(a.num_gpus(), r.num_gpus()) << where;
  for (GpuId g = 0; g < a.num_gpus(); ++g) {
    ASSERT_EQ(a.slot(g), r.slot(g)) << where << ": slot " << g;
  }
  ASSERT_EQ(a.idle_count(), r.idle_count()) << where;
  ASSERT_EQ(as_vector(a.idle_gpus()), as_vector(r.idle_gpus())) << where;
  ASSERT_EQ(a.unhealthy_gpus(), r.unhealthy_gpus()) << where;
  ASSERT_EQ(a.healthy_count(), r.healthy_count()) << where;
  ASSERT_EQ(as_vector(a.running_jobs()), as_vector(r.running_jobs())) << where;
  for (JobId k = 0; k < ids.count; ++k) {
    const JobId j = ids.at(k);
    if (ids.stride > 1) {
      expect_absent(now, j + 1, where);
      expect_absent(now, j + ids.stride / 2, where);
    }
    ASSERT_EQ(as_vector(a.gpus_of(j)), as_vector(r.gpus_of(j))) << where << ": job " << j;
    ASSERT_EQ(a.global_batch(j), r.global_batch(j)) << where << ": job " << j;
    ASSERT_EQ(a.gpu_count(j), r.gpu_count(j)) << where << ": job " << j;
    ASSERT_EQ(a.same_placement(prev.dut, j), r.same_placement(prev.ref, j))
        << where << ": job " << j;
  }
  const AssignmentDelta d = diff(prev.dut, a);
  const AssignmentDelta e = testing::reference_diff(prev.ref, r);
  ASSERT_EQ(d.started, e.started) << where;
  ASSERT_EQ(d.stopped, e.stopped) << where;
  ASSERT_EQ(d.reconfigured, e.reconfigured) << where;
  for (const JobId j : {kInvalidJob, ids.at(ids.count), ids.at(ids.count) + 1, JobId{1} << 40}) {
    expect_absent(now, j, where);
  }
  ASSERT_EQ(a.to_string(), r.to_string()) << where;
  ASSERT_NO_THROW(a.audit_indexes()) << where;
}

SlotHealth random_health(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return SlotHealth::Healthy;
    case 1: return SlotHealth::Failed;
    default: return SlotHealth::Reclaimed;
  }
}

/// A genome-like slot array: runs of one job's workers, idle gaps and a few
/// down GPUs (never under a worker, as from_slots requires).
std::vector<Slot> random_slots(Rng& rng, int gpus, JobIds ids) {
  std::vector<Slot> slots(static_cast<std::size_t>(gpus));
  JobId job = kInvalidJob;
  for (Slot& s : slots) {
    const auto roll = rng.uniform_int(0, 19);
    if (roll == 0) {
      s.health = rng.bernoulli(0.5) ? SlotHealth::Failed : SlotHealth::Reclaimed;
      continue;
    }
    if (roll < 4) continue;  // idle
    if (job == kInvalidJob || rng.bernoulli(0.3)) job = ids.draw(rng);
    s.job = job;
    s.local_batch = static_cast<int>(rng.uniform_int(1, 128));
  }
  return slots;
}

/// A GPU drawn from `list`, or -1 when it is empty.
GpuId draw(Rng& rng, std::span<const GpuId> list) {
  if (list.empty()) return -1;
  return list[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1))];
}

/// A GPU with a worker, or -1 when every GPU is free.
GpuId draw_occupied(Rng& rng, const ReferenceAssignment& r) {
  const auto jobs = r.running_jobs();
  if (jobs.empty()) return -1;
  const JobId j = jobs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(jobs.size()) - 1))];
  return draw(rng, r.gpus_of(j));
}

/// One seeded episode of `ops` random operations on `gpus` GPUs, placing
/// job ids `stride` apart.
void run_episode(std::uint64_t seed, int gpus, int ops, JobId stride) {
  Rng rng(seed);
  const JobIds ids{std::max<JobId>(4, gpus / 6), stride};
  Twin t{Assignment(gpus), ReferenceAssignment(gpus)};
  for (int op = 0; op < ops; ++op) {
    const Twin prev = t;
    const auto kind = rng.uniform_int(0, 15);
    const JobId job = ids.draw(rng);
    const int batch = static_cast<int>(rng.uniform_int(1, 256));
    std::string where = "seed " + std::to_string(seed) + " G=" + std::to_string(gpus) +
                        " stride " + std::to_string(stride) + " op " + std::to_string(op) +
                        " kind " + std::to_string(kind);
    switch (kind) {
      case 0:
      case 1: {  // place on a free GPU: a new job or one more worker
        const GpuId g = draw(rng, t.ref.idle_gpus());
        if (g < 0) break;
        t.dut.place(g, job, batch);
        t.ref.place(g, job, batch);
        break;
      }
      case 2: {  // place the same job again: only the batch moves
        const GpuId g = draw_occupied(rng, t.ref);
        if (g < 0) break;
        const JobId same = t.ref.slot(g).job;
        if (!t.ref.slot(g).healthy()) break;
        t.dut.place(g, same, batch);
        t.ref.place(g, same, batch);
        break;
      }
      case 3: {  // place over another job
        const GpuId g = draw_occupied(rng, t.ref);
        if (g < 0 || !t.ref.slot(g).healthy()) break;
        t.dut.place(g, job, batch);
        t.ref.place(g, job, batch);
        break;
      }
      case 4: {  // clear any GPU: occupied, idle, or down under a worker
        const GpuId g = rng.bernoulli(0.7) ? draw_occupied(rng, t.ref)
                                           : static_cast<GpuId>(rng.uniform_int(0, gpus - 1));
        if (g < 0) break;
        t.dut.clear(g);
        t.ref.clear(g);
        break;
      }
      case 5: {  // evict a placed (or absent) job
        const auto running = t.ref.running_jobs();
        const JobId victim =
            running.empty() || rng.bernoulli(0.1)
                ? job
                : running[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
        ASSERT_EQ(t.dut.evict(victim), t.ref.evict(victim)) << where;
        expect_absent(t, victim, where + " (just evicted)");
        break;
      }
      case 6: {  // evict a job one of whose GPUs went down while occupied
        const GpuId g = draw_occupied(rng, t.ref);
        if (g < 0) break;
        const JobId victim = t.ref.slot(g).job;
        const SlotHealth h = rng.bernoulli(0.5) ? SlotHealth::Failed : SlotHealth::Reclaimed;
        t.dut.set_health(g, h);
        t.ref.set_health(g, h);
        expect_same(t, prev, ids, where + " (went down)");
        ASSERT_EQ(t.dut.evict(victim), t.ref.evict(victim)) << where;
        expect_absent(t, victim, where + " (just evicted)");
        break;
      }
      case 7: {  // set_local_batch
        const GpuId g = draw_occupied(rng, t.ref);
        if (g < 0) break;
        t.dut.set_local_batch(g, batch);
        t.ref.set_local_batch(g, batch);
        break;
      }
      case 8:
      case 9: {  // set_health on an idle, occupied or down GPU
        GpuId g = static_cast<GpuId>(rng.uniform_int(0, gpus - 1));
        if (kind == 9) g = draw_occupied(rng, t.ref);
        if (g < 0) break;
        const SlotHealth h = random_health(rng);
        t.dut.set_health(g, h);
        t.ref.set_health(g, h);
        break;
      }
      case 10: {  // sync_health from a cluster whose health map moved
        Twin live = t;
        for (int i = 0; i < 1 + gpus / 16; ++i) {
          const GpuId g = static_cast<GpuId>(rng.uniform_int(0, gpus - 1));
          const SlotHealth h = random_health(rng);
          live.dut.set_health(g, h);
          live.ref.set_health(g, h);
        }
        t.dut.sync_health(live.dut);
        t.ref.sync_health(live.ref);
        break;
      }
      case 11: {  // from_slots: a fresh genome
        const std::vector<Slot> slots = random_slots(rng, gpus, ids);
        t.dut = Assignment::from_slots(slots);
        t.ref = ReferenceAssignment::from_slots(slots);
        break;
      }
      case 12: {  // empty_like keeps the health map only
        t.dut = Assignment::empty_like(t.dut);
        t.ref = ReferenceAssignment::empty_like(t.ref);
        break;
      }
      case 13: {  // copy, then mutate the copy: the original must not move
        Twin copy = t;
        for (int i = 0; i < 4; ++i) {
          const GpuId g = draw(rng, copy.ref.idle_gpus());
          if (g < 0) break;
          copy.dut.place(g, job, batch);
          copy.ref.place(g, job, batch);
        }
        const JobId victim = ids.draw(rng);
        ASSERT_EQ(copy.dut.evict(victim), copy.ref.evict(victim)) << where;
        expect_same(t, prev, ids, where + " (original after copy)");
        t = std::move(copy);
        break;
      }
      case 14: {  // placing on a down GPU throws on both sides, changing nothing
        const auto& down = t.ref.unhealthy_gpus();
        if (down.empty()) break;
        const GpuId g = draw(rng, down);
        EXPECT_THROW(t.dut.place(g, job, batch), std::logic_error) << where;
        EXPECT_THROW(t.ref.place(g, job, batch), std::logic_error) << where;
        break;
      }
      case 15: {  // evict all jobs but the first, now and then: the index shrinks
        if (!rng.bernoulli(0.25)) break;
        const auto running = t.ref.running_jobs();
        const std::vector<JobId> victims(running.begin() + (running.empty() ? 0 : 1),
                                         running.end());
        for (const JobId victim : victims) {
          ASSERT_EQ(t.dut.evict(victim), t.ref.evict(victim)) << where;
        }
        break;
      }
    }
    expect_same(t, prev, ids, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(AssignmentEquivalence, LockStepMatchesReference) {
  struct Size {
    int gpus;
    int ops;
    int seeds;
  };
  for (const JobId stride : {JobId{1}, JobId{1000}}) {
    for (const Size size : {Size{8, 800, 6}, Size{32, 800, 6}, Size{128, 500, 4},
                            Size{2000, 200, 2}}) {
      for (int s = 0; s < size.seeds; ++s) {
        run_episode(0xA55100ULL + static_cast<std::uint64_t>(s * 7919 + size.gpus), size.gpus,
                    size.ops, stride);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The placer as it stood before its per-node buckets moved into one flat
// array: one vector per node per call. Kept verbatim as the specification.

std::vector<GpuId> reference_pick_idle_gpus(const Assignment& assignment,
                                            const Topology& topology, int count) {
  ONES_EXPECT(count >= 1);
  if (assignment.idle_count() < count) return {};

  // Free GPUs per node.
  std::vector<std::vector<GpuId>> free_by_node(static_cast<std::size_t>(topology.num_nodes()));
  for (GpuId g : assignment.idle_gpus()) {
    free_by_node[static_cast<std::size_t>(topology.node_of(g))].push_back(g);
  }

  // Best fit: the node with the *fewest* free GPUs that still fits the set,
  // to preserve large holes for large jobs.
  int best_node = -1;
  for (int n = 0; n < topology.num_nodes(); ++n) {
    const int free = static_cast<int>(free_by_node[static_cast<std::size_t>(n)].size());
    if (free >= count &&
        (best_node < 0 ||
         free < static_cast<int>(free_by_node[static_cast<std::size_t>(best_node)].size()))) {
      best_node = n;
    }
  }
  std::vector<GpuId> out;
  if (best_node >= 0) {
    const auto& pool = free_by_node[static_cast<std::size_t>(best_node)];
    out.assign(pool.begin(), pool.begin() + count);
    return out;
  }

  // Spill: take from the emptiest nodes first to minimize the span.
  std::vector<int> order(static_cast<std::size_t>(topology.num_nodes()));
  for (int n = 0; n < topology.num_nodes(); ++n) order[static_cast<std::size_t>(n)] = n;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return free_by_node[static_cast<std::size_t>(a)].size() >
           free_by_node[static_cast<std::size_t>(b)].size();
  });
  for (int n : order) {
    for (GpuId g : free_by_node[static_cast<std::size_t>(n)]) {
      if (static_cast<int>(out.size()) == count) return out;
      out.push_back(g);
    }
  }
  ONES_EXPECT(static_cast<int>(out.size()) == count);
  return out;
}

TEST(PickIdleGpus, MatchesReference) {
  Rng rng(0x91C4);
  for (const int gpus : {64, 512, 2000, 10000}) {
    for (const int per_node : {4, 8}) {
      TopologyConfig tc;
      tc.gpus_per_node = per_node;
      tc.num_nodes = gpus / per_node;
      const Topology topo(tc);
      for (int trial = 0; trial < 12; ++trial) {
        // Occupancy from nearly empty to nearly full; whole free nodes tie
        // with each other, and so do nodes with equal partial holes.
        const double busy = rng.uniform(0.05, 0.98);
        std::vector<Slot> slots(static_cast<std::size_t>(gpus));
        for (std::size_t g = 0; g < slots.size(); ++g) {
          if (rng.bernoulli(0.02)) {
            slots[g].health = SlotHealth::Failed;
          } else if (rng.bernoulli(busy)) {
            slots[g] = Slot{static_cast<JobId>(g / 3), 32, SlotHealth::Healthy};
          }
        }
        const Assignment a = Assignment::from_slots(slots);
        for (const int count : {1, 2, 3, per_node - 1, per_node, per_node + 1, 2 * per_node,
                                3 * per_node + 1, 64, a.idle_count(), a.idle_count() + 1}) {
          if (count < 1) continue;
          ASSERT_EQ(sched::pick_idle_gpus(a, topo, count),
                    reference_pick_idle_gpus(a, topo, count))
              << gpus << " GPUs, " << per_node << " per node, trial " << trial << ", count "
              << count << ", " << a.idle_count() << " idle";
        }
      }
    }
  }
}

}  // namespace
}  // namespace ones::cluster
