// Cluster-wide schedule: the mapping S : J x C -> {b_j^i} from the paper
// (Eq. 1). One slot per GPU holds the job running there and its local batch
// size; a job's global batch size B_j and GPU count c_j follow from Eq. 2.
//
// This type doubles as the *genome* of the evolutionary search (Figure 1):
// the refresh / crossover / mutation / reorder operators all manipulate
// Assignments directly.
//
// The per-GPU slot array stays the source of truth, but every derived view
// (idle GPUs, per-job GPU lists, global batches, the running-job order) is
// answered from indexes maintained incrementally by the mutators
// (DESIGN.md §12), so const reads never write. The evolutionary search
// calls idle_gpus / gpus_of / global_batch / running_jobs inside its
// per-candidate loops, so O(G) rescans there are what made 10k-GPU clusters
// infeasible.
// The indexes are flat vectors — no unordered containers, so iteration
// order is deterministic by construction (tools/ones_lint R2). The idle
// list, every job's GPU list and the job index share one buffer, so copying
// a genome costs a fixed handful of allocations whatever its job count. The
// job index is a small open-addressing table that finds a job's entry in
// O(1); it is sized by the jobs placed (never by the largest JobId) and
// only probed, never iterated.
// The list views (gpus_of, running_jobs, idle_gpus) are spans into those
// indexes: valid until the next mutation, so a caller that mutates the
// assignment while iterating one takes a copy first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace ones::cluster {

/// Health of a GPU slot (DESIGN.md §13). Only Healthy GPUs are placeable;
/// Failed covers hardware faults and node crashes, Reclaimed covers spot
/// capacity taken back by the provider. The distinction is cosmetic to the
/// schedulers (both mask the GPU) but kept for telemetry and traces.
enum class SlotHealth : std::uint8_t { Healthy = 0, Failed = 1, Reclaimed = 2 };

const char* to_string(SlotHealth h);

/// Per-GPU gene: which job runs on this device and with what local batch.
struct Slot {
  JobId job = kInvalidJob;
  int local_batch = 0;
  SlotHealth health = SlotHealth::Healthy;

  bool occupied() const { return job != kInvalidJob; }
  bool healthy() const { return health == SlotHealth::Healthy; }
  bool operator==(const Slot&) const = default;
};

class Assignment {
 public:
  Assignment() = default;
  explicit Assignment(int num_gpus);

  int num_gpus() const { return static_cast<int>(slots_.size()); }
  const Slot& slot(GpuId gpu) const;

  /// Place a worker of `job` on `gpu` with `local_batch` >= 1 samples.
  /// Overwrites whatever was there (preemption is the caller's policy call).
  void place(GpuId gpu, JobId job, int local_batch);

  /// Free a GPU.
  void clear(GpuId gpu);

  /// Remove all workers of a job; returns the number of GPUs freed.
  int evict(JobId job);

  /// Change the local batch on a GPU already running `job`.
  void set_local_batch(GpuId gpu, int local_batch);

  // ---- Health (DESIGN.md §13) ----

  /// Change a GPU's health. An unoccupied GPU leaves/rejoins the idle index
  /// as it sickens/heals; an occupied GPU keeps its worker — routing that
  /// worker into recovery is the driver's job (`place` refuses unhealthy
  /// GPUs, so the transient occupied-but-down state can only arise here).
  void set_health(GpuId gpu, SlotHealth health);

  SlotHealth health(GpuId gpu) const;
  /// Number of Healthy GPUs (occupied or not).
  int healthy_count() const;
  /// GPUs whose health is not Healthy, in ascending GPU order.
  const std::vector<GpuId>& unhealthy_gpus() const { return down_; }

  /// Copy `from`'s per-GPU health states onto this assignment (same size).
  /// A slot here that is occupied but newly unhealthy is cleared first, so
  /// the result never places a worker on a down GPU. Used to refresh cached
  /// genomes (the evolutionary population) against the live cluster.
  void sync_health(const Assignment& from);

  /// Build an assignment from a whole slot array in one O(G) pass — the bulk
  /// counterpart of one `place` per GPU, with the same preconditions: an
  /// occupied slot has local_batch >= 1 and a healthy GPU, an idle slot
  /// carries no batch. Throws std::logic_error otherwise.
  static Assignment from_slots(std::vector<Slot> slots);

  /// An empty (all-idle) assignment with the same size and health map as
  /// `a` — the health-aware replacement for `Assignment(a.num_gpus())` when
  /// building candidate schedules from scratch.
  static Assignment empty_like(const Assignment& a);

  // ---- Derived views (Eq. 2) ----

  /// Global batch size B_j (0 if the job is not placed).
  int global_batch(JobId job) const;
  /// Number of GPUs c_j.
  int gpu_count(JobId job) const;
  /// GPUs hosting workers of the job, in ascending GPU order (empty if the
  /// job is not placed). Valid until the next mutation.
  std::span<const GpuId> gpus_of(JobId job) const;
  /// Jobs with at least one worker, in first-occurrence order (ascending
  /// lowest GPU). The mutators keep the order current, so this is O(1).
  /// Valid until the next mutation.
  std::span<const JobId> running_jobs() const;
  /// Healthy GPUs with no worker, ascending (down GPUs are never idle:
  /// schedulers read capacity exclusively through this index, which is what
  /// masks them). Valid until the next mutation.
  std::span<const GpuId> idle_gpus() const {
    return {buf_.data(), static_cast<std::size_t>(idle_count_)};
  }
  int idle_count() const { return idle_count_; }

  /// True iff `job` occupies the same GPUs with the same local batches in
  /// both schedules (also true when it is absent from both). This is the
  /// per-job "did its configuration change" predicate the diff and the
  /// evolutionary switching surcharge are built on; O(c_j), not O(G).
  bool same_placement(const Assignment& other, JobId job) const;

  /// Two schedules are equal iff their slot arrays are equal; the indexes
  /// are a pure function of the slots, so they never need comparing.
  bool operator==(const Assignment& other) const { return slots_ == other.slots_; }

  /// Compact human-readable rendering (for logs and examples):
  /// "[1:256 1:256 - 7:512]".
  std::string to_string() const;

  /// Validate Eq. 4 style invariants: every occupied slot has local_batch>=1,
  /// every idle slot has local_batch==0. Throws on violation.
  void check_invariants() const;

  /// Audit mode (DESIGN.md §12): recompute every incremental index from the
  /// slot array and throw (std::logic_error via ONES_EXPECT) on any
  /// divergence. O(G log G); meant for tests and the driver's
  /// `audit_incremental` flag, not for hot paths.
  void audit_indexes() const;

 private:
  /// Per-job index entry: the job's GPUs are buf_[begin, begin + count),
  /// ascending; `global_batch` is the sum of their slots' local batches.
  struct JobStat {
    JobId job = kInvalidJob;
    int global_batch = 0;
    int begin = 0;
    int count = 0;
  };

  /// jobs_ entry of `job`, or nullptr if it holds no GPU (one probe of the
  /// job index in the common case, whatever the job count).
  const JobStat* find_stat(JobId job) const;
  JobStat* find_stat(JobId job);
  /// A new, empty stat for `job` (absent), its list at the end of the
  /// lists, indexed.
  JobStat& add_stat(JobId job);
  /// Remove jobs_[pos] and its bucket; the last stat takes its place.
  void drop_stat(std::size_t pos);
  /// Move idle `gpu` into the job's GPU list (running `local_batch`),
  /// creating the job's entry if it was not placed anywhere.
  void attach(JobId job, GpuId gpu, int local_batch);
  /// Remove `gpu` from the job's GPU list: back into the idle prefix if the
  /// GPU is healthy, out of buf_ if it is down. Drops the entry when it
  /// empties.
  void detach(JobId job, GpuId gpu, int local_batch);
  /// First position in order_[first, last) whose job's front (lowest GPU,
  /// the key order_ is sorted by) is not below `gpu`: O(log J) probes.
  std::size_t order_bound(std::size_t first, std::size_t last, GpuId gpu) const;
  /// Add `delta` to the `begin` of every list starting in [first, last].
  void shift_lists(int first, int last, int delta);

  // ---- Job index: open addressing over buf_'s bucket suffix ----
  std::size_t bucket_count() const {
    return index_bits_ == 0 ? 0 : std::size_t{1} << index_bits_;
  }
  /// End of the GPU lists in buf_, where the index buckets start.
  int lists_end() const { return static_cast<int>(buf_.size() - bucket_count()); }
  /// First bucket probed for `job` (Fibonacci hashing).
  std::size_t home(JobId job) const;
  /// The bucket holding `job`'s stat, or the empty bucket its probe ends at
  /// (the index must have buckets).
  std::size_t probe(JobId job) const;
  /// Bucket holding jobs_ position `pos` (which must be indexed).
  std::size_t bucket_of(std::size_t pos) const;
  /// Point an empty bucket on the probe path of jobs_[pos] at `pos`.
  void index_insert(std::size_t pos);
  /// Give the index 2^bits buckets (none at 0) and re-index all of jobs_.
  void rebuild_index(int bits);

  std::vector<Slot> slots_;
  /// One buffer for every GPU list, and the job index after them:
  /// [idle GPUs ascending | each job's GPUs ascending | index buckets]. The
  /// job lists tile their part in no particular job order. Idle GPUs are
  /// healthy and unoccupied; down GPUs appear only while a worker still
  /// occupies them. A bucket holds a jobs_ position or -1 (empty), with at
  /// least two buckets per stat (DESIGN.md §12.2).
  std::vector<GpuId> buf_;
  std::vector<GpuId> down_;     ///< ascending; health != Healthy
  /// One stat per placed job, in no particular order: a job that leaves
  /// is replaced by the last, so no other stat moves.
  std::vector<JobStat> jobs_;
  /// running_jobs(): the placed jobs by ascending lowest GPU, kept current
  /// by attach, detach, evict and from_slots.
  std::vector<JobId> order_;
  /// log2(bucket_count()); 0 = no buckets (no job placed yet, or the last
  /// one left). It and the idle length sit in the padding after the
  /// vectors: sizeof(Assignment) stays 128 bytes (DESIGN.md §12.2 says why).
  std::uint8_t index_bits_ = 0;
  /// Length of buf_'s idle prefix.
  int idle_count_ = 0;
};

/// Difference between two schedules, used to charge scaling costs only to
/// jobs whose configuration actually changed.
struct AssignmentDelta {
  std::vector<JobId> started;      ///< jobs with workers only in `next`
  std::vector<JobId> stopped;      ///< jobs with workers only in `prev`
  std::vector<JobId> reconfigured; ///< jobs whose worker set or batches changed
};

AssignmentDelta diff(const Assignment& prev, const Assignment& next);

}  // namespace ones::cluster
