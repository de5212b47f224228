// Reference cluster::Assignment for the lock-step differential test
// (tests/assignment_equivalence_test.cpp).
//
// This is the schedule type as it stood before its indexes moved into one
// flat buffer, kept verbatim apart from the name and compiled into tests
// only: a sorted idle vector, and one JobStat per placed job that owns its
// own sorted GPU vector. It is the executable specification the production
// Assignment must match after every operation: same slots, same idle and
// down lists, same per-job views, same running_jobs() order. Do not
// "improve" it; its value is that it stays simple and obviously correct.
#pragma once

#include <algorithm>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/assignment.hpp"
#include "common/expect.hpp"
#include "common/ids.hpp"

namespace ones::testing {

using cluster::AssignmentDelta;
using cluster::Slot;
using cluster::SlotHealth;

/// Sorted-insert into an ascending vector (no duplicates expected).
template <typename T>
inline void insert_sorted(std::vector<T>& v, T value) {
  v.insert(std::lower_bound(v.begin(), v.end(), value), value);
}

/// Remove `value` from an ascending vector; it must be present.
template <typename T>
inline void erase_sorted(std::vector<T>& v, T value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  ONES_EXPECT_MSG(it != v.end() && *it == value, "index entry missing");
  v.erase(it);
}

class ReferenceAssignment {
 public:
  ReferenceAssignment() = default;
  explicit ReferenceAssignment(int num_gpus);

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
  void sync_health(const ReferenceAssignment& from);

  /// Build an assignment from a whole slot array in one O(G) pass — the bulk
  /// counterpart of one `place` per GPU, with the same preconditions: an
  /// occupied slot has local_batch >= 1 and a healthy GPU, an idle slot
  /// carries no batch. Throws std::logic_error otherwise.
  static ReferenceAssignment from_slots(std::vector<Slot> slots);

  /// An empty (all-idle) assignment with the same size and health map as
  /// `a` — the health-aware replacement for `ReferenceAssignment(a.num_gpus())` when
  /// building candidate schedules from scratch.
  static ReferenceAssignment empty_like(const ReferenceAssignment& a);

  // ---- Derived views (Eq. 2) ----

  /// Global batch size B_j (0 if the job is not placed).
  int global_batch(JobId job) const;
  /// Number of GPUs c_j.
  int gpu_count(JobId job) const;
  /// GPUs hosting workers of the job, in ascending GPU order (empty if the
  /// job is not placed). Valid until the next mutation.
  std::span<const GpuId> gpus_of(JobId job) const;
  /// Jobs with at least one worker, in first-occurrence order. Computed at
  /// most once per state (the order is cached until the next mutation, so
  /// an ReferenceAssignment is not safe to read from two threads at once). Valid
  /// until the next mutation.
  std::span<const JobId> running_jobs() const;
  /// Healthy GPUs with no worker, ascending (down GPUs are never idle:
  /// schedulers read capacity exclusively through this index, which is what
  /// masks them). Valid until the next mutation.
  std::span<const GpuId> idle_gpus() const { return idle_; }
  int idle_count() const;

  /// True iff `job` occupies the same GPUs with the same local batches in
  /// both schedules (also true when it is absent from both). This is the
  /// per-job "did its configuration change" predicate the diff and the
  /// evolutionary switching surcharge are built on; O(c_j), not O(G).
  bool same_placement(const ReferenceAssignment& other, JobId job) const;

  /// Two schedules are equal iff their slot arrays are equal; the indexes
  /// are a pure function of the slots, so they never need comparing.
  bool operator==(const ReferenceAssignment& other) const { return slots_ == other.slots_; }

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
  /// Per-job index entry. `gpus` is ascending; `global_batch` is the sum of
  /// the member slots' local batches.
  struct JobStat {
    JobId job = kInvalidJob;
    int global_batch = 0;
    std::vector<GpuId> gpus;
  };

  /// jobs_ position of `job`, or nullptr if it holds no GPU (binary search:
  /// jobs_ is sorted by JobId).
  const JobStat* find_stat(JobId job) const;
  JobStat* find_stat(JobId job);
  /// Add `gpu` (running `local_batch`) to the job's stat, creating it if the
  /// job was not placed anywhere.
  void attach(JobId job, GpuId gpu, int local_batch);
  /// Remove `gpu` from the job's stat, dropping the stat when it empties.
  void detach(JobId job, GpuId gpu, int local_batch);

  std::vector<Slot> slots_;
  std::vector<GpuId> idle_;     ///< ascending; healthy AND unoccupied only
  std::vector<GpuId> down_;     ///< ascending; health != Healthy
  std::vector<JobStat> jobs_;   ///< ascending by JobId
  /// running_jobs() cache: jobs_ ordered by lowest GPU, valid while
  /// `order_valid_`; attach/detach/evict invalidate it.
  mutable std::vector<JobId> order_;
  mutable bool order_valid_ = false;
};

inline ReferenceAssignment::ReferenceAssignment(int num_gpus) : slots_(static_cast<std::size_t>(num_gpus)) {
  ONES_EXPECT(num_gpus >= 0);
  idle_.resize(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) idle_[static_cast<std::size_t>(g)] = g;
}

inline const Slot& ReferenceAssignment::slot(GpuId gpu) const {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  return slots_[static_cast<std::size_t>(gpu)];
}

inline const ReferenceAssignment::JobStat* ReferenceAssignment::find_stat(JobId job) const {
  const auto it = std::lower_bound(
      jobs_.begin(), jobs_.end(), job,
      [](const JobStat& s, JobId j) { return s.job < j; });
  if (it == jobs_.end() || it->job != job) return nullptr;
  return &*it;
}

inline ReferenceAssignment::JobStat* ReferenceAssignment::find_stat(JobId job) {
  return const_cast<JobStat*>(std::as_const(*this).find_stat(job));
}

inline void ReferenceAssignment::attach(JobId job, GpuId gpu, int local_batch) {
  JobStat* stat = find_stat(job);
  if (stat == nullptr) {
    const auto it = std::lower_bound(
        jobs_.begin(), jobs_.end(), job,
        [](const JobStat& s, JobId j) { return s.job < j; });
    stat = &*jobs_.insert(it, JobStat{job, 0, {}});
  }
  order_valid_ = false;
  stat->global_batch += local_batch;
  insert_sorted(stat->gpus, gpu);
}

inline void ReferenceAssignment::detach(JobId job, GpuId gpu, int local_batch) {
  JobStat* stat = find_stat(job);
  ONES_EXPECT_MSG(stat != nullptr, "job index entry missing");
  order_valid_ = false;
  stat->global_batch -= local_batch;
  erase_sorted(stat->gpus, gpu);
  if (stat->gpus.empty()) {
    jobs_.erase(jobs_.begin() + (stat - jobs_.data()));
  }
}

inline void ReferenceAssignment::place(GpuId gpu, JobId job, int local_batch) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  ONES_EXPECT_MSG(job != kInvalidJob, "cannot place the invalid job");
  ONES_EXPECT_MSG(local_batch >= 1, "a worker needs at least one sample per step");
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  ONES_EXPECT_MSG(s.healthy(), "cannot place a worker on a down GPU");
  if (s.occupied()) {
    if (s.job == job) {
      // Same job, possibly a new batch: only the batch sum moves.
      find_stat(job)->global_batch += local_batch - s.local_batch;
      s.local_batch = local_batch;
      return;
    }
    detach(s.job, gpu, s.local_batch);
  } else {
    erase_sorted(idle_, gpu);
  }
  s = Slot{job, local_batch, s.health};
  attach(job, gpu, local_batch);
}

inline void ReferenceAssignment::clear(GpuId gpu) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  if (!s.occupied()) return;
  detach(s.job, gpu, s.local_batch);
  if (s.healthy()) insert_sorted(idle_, gpu);
  s = Slot{kInvalidJob, 0, s.health};
}

inline int ReferenceAssignment::evict(JobId job) {
  const JobStat* stat = find_stat(job);
  if (stat == nullptr) return 0;
  const int freed = static_cast<int>(stat->gpus.size());
  const std::size_t old_idle = idle_.size();
  for (const GpuId g : stat->gpus) {
    Slot& s = slots_[static_cast<std::size_t>(g)];
    if (s.healthy()) idle_.push_back(g);
    s = Slot{kInvalidJob, 0, s.health};
  }
  // Both halves are ascending: one merge instead of c_j binary inserts.
  std::inplace_merge(idle_.begin(),
                     idle_.begin() + static_cast<std::ptrdiff_t>(old_idle),
                     idle_.end());
  jobs_.erase(jobs_.begin() + (stat - jobs_.data()));
  order_valid_ = false;
  return freed;
}

inline void ReferenceAssignment::set_health(GpuId gpu, SlotHealth health) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  if (s.health == health) return;
  const bool was_healthy = s.healthy();
  s.health = health;
  if (was_healthy && !s.healthy()) {
    insert_sorted(down_, gpu);
    if (!s.occupied()) erase_sorted(idle_, gpu);
  } else if (!was_healthy && s.healthy()) {
    erase_sorted(down_, gpu);
    if (!s.occupied()) insert_sorted(idle_, gpu);
  }
  // Failed <-> Reclaimed: membership in both indexes is unchanged.
}

inline SlotHealth ReferenceAssignment::health(GpuId gpu) const {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  return slots_[static_cast<std::size_t>(gpu)].health;
}

inline int ReferenceAssignment::healthy_count() const {
  return num_gpus() - static_cast<int>(down_.size());
}

inline void ReferenceAssignment::sync_health(const ReferenceAssignment& from) {
  ONES_EXPECT(num_gpus() == from.num_gpus());
  // Only GPUs down on either side can differ; walk the union of both down
  // lists instead of all G slots.
  std::vector<GpuId> touched;
  touched.reserve(down_.size() + from.down_.size());
  std::set_union(down_.begin(), down_.end(), from.down_.begin(),
                 from.down_.end(), std::back_inserter(touched));
  for (const GpuId g : touched) {
    const SlotHealth target = from.slots_[static_cast<std::size_t>(g)].health;
    const Slot& s = slots_[static_cast<std::size_t>(g)];
    if (s.health == target) continue;
    if (target != SlotHealth::Healthy && s.occupied()) clear(g);
    set_health(g, target);
  }
}

inline ReferenceAssignment ReferenceAssignment::from_slots(std::vector<Slot> slots) {
  ReferenceAssignment out;
  out.slots_ = std::move(slots);
  JobStat* stat = nullptr;  // the previous slot's job: genomes keep workers adjacent
  for (int g = 0; g < out.num_gpus(); ++g) {
    const Slot& s = out.slots_[static_cast<std::size_t>(g)];
    if (!s.healthy()) out.down_.push_back(g);
    if (!s.occupied()) {
      ONES_EXPECT_MSG(s.local_batch == 0, "idle slot carries a batch size");
      if (s.healthy()) out.idle_.push_back(g);
      continue;
    }
    ONES_EXPECT_MSG(s.local_batch >= 1, "a worker needs at least one sample per step");
    ONES_EXPECT_MSG(s.healthy(), "cannot place a worker on a down GPU");
    if (stat == nullptr || stat->job != s.job) stat = out.find_stat(s.job);
    if (stat == nullptr) {
      // First occurrence: the scan discovers jobs in running_jobs() order.
      const auto it = std::lower_bound(
          out.jobs_.begin(), out.jobs_.end(), s.job,
          [](const JobStat& a, JobId j) { return a.job < j; });
      stat = &*out.jobs_.insert(it, JobStat{s.job, 0, {}});
      out.order_.push_back(s.job);
    }
    stat->global_batch += s.local_batch;
    stat->gpus.push_back(g);  // g ascending: stays sorted
  }
  out.order_valid_ = true;
  return out;
}

inline ReferenceAssignment ReferenceAssignment::empty_like(const ReferenceAssignment& a) {
  std::vector<Slot> slots(a.slots_.size());
  for (const GpuId g : a.down_) {
    slots[static_cast<std::size_t>(g)].health = a.slots_[static_cast<std::size_t>(g)].health;
  }
  return from_slots(std::move(slots));
}

inline void ReferenceAssignment::set_local_batch(GpuId gpu, int local_batch) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  ONES_EXPECT(local_batch >= 1);
  auto& s = slots_[static_cast<std::size_t>(gpu)];
  ONES_EXPECT_MSG(s.occupied(), "cannot set a batch size on an idle GPU");
  find_stat(s.job)->global_batch += local_batch - s.local_batch;
  s.local_batch = local_batch;
}

inline int ReferenceAssignment::global_batch(JobId job) const {
  const JobStat* stat = find_stat(job);
  return stat != nullptr ? stat->global_batch : 0;
}

inline int ReferenceAssignment::gpu_count(JobId job) const {
  const JobStat* stat = find_stat(job);
  return stat != nullptr ? static_cast<int>(stat->gpus.size()) : 0;
}

inline std::span<const GpuId> ReferenceAssignment::gpus_of(JobId job) const {
  const JobStat* stat = find_stat(job);
  if (stat == nullptr) return {};
  return stat->gpus;
}

inline std::span<const JobId> ReferenceAssignment::running_jobs() const {
  if (!order_valid_) {
    // First-occurrence order over the slot array == ascending order of each
    // job's lowest-numbered GPU (two jobs cannot share a GPU).
    std::vector<std::pair<GpuId, JobId>> by_front;
    by_front.reserve(jobs_.size());
    for (const JobStat& s : jobs_) by_front.emplace_back(s.gpus.front(), s.job);
    std::sort(by_front.begin(), by_front.end());
    order_.clear();
    for (const auto& [front, job] : by_front) order_.push_back(job);
    order_valid_ = true;
  }
  return order_;
}

inline int ReferenceAssignment::idle_count() const { return static_cast<int>(idle_.size()); }

inline bool ReferenceAssignment::same_placement(const ReferenceAssignment& other, JobId job) const {
  const JobStat* a = find_stat(job);
  const JobStat* b = other.find_stat(job);
  if ((a == nullptr) != (b == nullptr)) return false;
  if (a == nullptr) return true;
  if (a->gpus != b->gpus) return false;
  for (const GpuId g : a->gpus) {
    if (slots_[static_cast<std::size_t>(g)].local_batch !=
        other.slots_[static_cast<std::size_t>(g)].local_batch) {
      return false;
    }
  }
  return true;
}

inline std::string ReferenceAssignment::to_string() const {
  std::ostringstream os;
  os << "[";
  for (int g = 0; g < num_gpus(); ++g) {
    if (g > 0) os << " ";
    const auto& s = slots_[static_cast<std::size_t>(g)];
    if (s.occupied()) {
      os << s.job << ":" << s.local_batch;
    } else {
      os << "-";
    }
    if (s.health == SlotHealth::Failed) os << "!";
    if (s.health == SlotHealth::Reclaimed) os << "~";
  }
  os << "]";
  return os.str();
}

inline void ReferenceAssignment::check_invariants() const {
  for (const auto& s : slots_) {
    if (s.occupied()) {
      ONES_EXPECT_MSG(s.local_batch >= 1, "occupied slot with local batch < 1");
    } else {
      ONES_EXPECT_MSG(s.local_batch == 0, "idle slot carries a batch size");
    }
  }
}

inline void ReferenceAssignment::audit_indexes() const {
  std::vector<GpuId> idle;
  std::vector<GpuId> down;
  std::vector<JobStat> jobs;
  std::vector<JobId> order;
  for (int g = 0; g < num_gpus(); ++g) {
    const Slot& s = slots_[static_cast<std::size_t>(g)];
    if (!s.healthy()) down.push_back(g);
    if (!s.occupied()) {
      if (s.healthy()) idle.push_back(g);
      continue;
    }
    const auto it = std::lower_bound(
        jobs.begin(), jobs.end(), s.job,
        [](const JobStat& a, JobId j) { return a.job < j; });
    if (it == jobs.end() || it->job != s.job) {
      jobs.insert(it, JobStat{s.job, s.local_batch, {g}});
      order.push_back(s.job);
    } else {
      it->global_batch += s.local_batch;
      it->gpus.push_back(g);  // g ascending: stays sorted
    }
  }
  ONES_EXPECT_MSG(idle == idle_, "idle-GPU index diverged from the slot array");
  ONES_EXPECT_MSG(down == down_, "down-GPU index diverged from the slot array");
  ONES_EXPECT_MSG(jobs.size() == jobs_.size(),
                  "job index has the wrong number of entries");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ONES_EXPECT_MSG(jobs[i].job == jobs_[i].job, "job index diverged: wrong job");
    ONES_EXPECT_MSG(jobs[i].global_batch == jobs_[i].global_batch,
                    "job index diverged: stale global batch");
    ONES_EXPECT_MSG(jobs[i].gpus == jobs_[i].gpus,
                    "job index diverged: stale GPU list");
  }
  if (order_valid_) {
    ONES_EXPECT_MSG(order == order_, "running-job order cache diverged");
  }
}

inline AssignmentDelta reference_diff(const ReferenceAssignment& prev, const ReferenceAssignment& next) {
  ONES_EXPECT(prev.num_gpus() == next.num_gpus());
  AssignmentDelta d;
  // Membership tests against id-sorted copies; output order still comes from
  // running_jobs() (first-occurrence), exactly as before.
  const auto prev_ids = prev.running_jobs();
  const auto next_ids = next.running_jobs();
  std::vector<JobId> prev_sorted(prev_ids.begin(), prev_ids.end());
  std::vector<JobId> next_sorted(next_ids.begin(), next_ids.end());
  std::sort(prev_sorted.begin(), prev_sorted.end());
  std::sort(next_sorted.begin(), next_sorted.end());

  for (const JobId j : next_ids) {
    if (!std::binary_search(prev_sorted.begin(), prev_sorted.end(), j)) {
      d.started.push_back(j);
      continue;
    }
    // Same job on both sides: did its placement or batches change?
    (prev.same_placement(next, j) ? d.unchanged : d.reconfigured).push_back(j);
  }
  for (const JobId j : prev_ids) {
    if (!std::binary_search(next_sorted.begin(), next_sorted.end(), j)) {
      d.stopped.push_back(j);
    }
  }
  return d;
}

}  // namespace ones::testing
