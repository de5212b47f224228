#include "cluster/assignment.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/expect.hpp"

namespace ones::cluster {

namespace {

/// Sorted-insert into an ascending vector (no duplicates expected).
template <typename T>
void insert_sorted(std::vector<T>& v, T value) {
  v.insert(std::lower_bound(v.begin(), v.end(), value), value);
}

/// Remove `value` from an ascending vector; it must be present.
template <typename T>
void erase_sorted(std::vector<T>& v, T value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  ONES_EXPECT_MSG(it != v.end() && *it == value, "index entry missing");
  v.erase(it);
}

}  // namespace

const char* to_string(SlotHealth h) {
  switch (h) {
    case SlotHealth::Healthy: return "healthy";
    case SlotHealth::Failed: return "failed";
    case SlotHealth::Reclaimed: return "reclaimed";
  }
  return "?";
}

Assignment::Assignment(int num_gpus) : slots_(static_cast<std::size_t>(num_gpus)) {
  ONES_EXPECT(num_gpus >= 0);
  idle_.resize(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) idle_[static_cast<std::size_t>(g)] = g;
}

const Slot& Assignment::slot(GpuId gpu) const {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  return slots_[static_cast<std::size_t>(gpu)];
}

const Assignment::JobStat* Assignment::find_stat(JobId job) const {
  const auto it = std::lower_bound(
      jobs_.begin(), jobs_.end(), job,
      [](const JobStat& s, JobId j) { return s.job < j; });
  if (it == jobs_.end() || it->job != job) return nullptr;
  return &*it;
}

Assignment::JobStat* Assignment::find_stat(JobId job) {
  return const_cast<JobStat*>(std::as_const(*this).find_stat(job));
}

void Assignment::attach(JobId job, GpuId gpu, int local_batch) {
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

void Assignment::detach(JobId job, GpuId gpu, int local_batch) {
  JobStat* stat = find_stat(job);
  ONES_EXPECT_MSG(stat != nullptr, "job index entry missing");
  order_valid_ = false;
  stat->global_batch -= local_batch;
  erase_sorted(stat->gpus, gpu);
  if (stat->gpus.empty()) {
    jobs_.erase(jobs_.begin() + (stat - jobs_.data()));
  }
}

void Assignment::place(GpuId gpu, JobId job, int local_batch) {
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

void Assignment::clear(GpuId gpu) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  if (!s.occupied()) return;
  detach(s.job, gpu, s.local_batch);
  if (s.healthy()) insert_sorted(idle_, gpu);
  s = Slot{kInvalidJob, 0, s.health};
}

int Assignment::evict(JobId job) {
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

void Assignment::set_health(GpuId gpu, SlotHealth health) {
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

SlotHealth Assignment::health(GpuId gpu) const {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  return slots_[static_cast<std::size_t>(gpu)].health;
}

int Assignment::healthy_count() const {
  return num_gpus() - static_cast<int>(down_.size());
}

void Assignment::sync_health(const Assignment& from) {
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

Assignment Assignment::from_slots(std::vector<Slot> slots) {
  Assignment out;
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

Assignment Assignment::empty_like(const Assignment& a) {
  std::vector<Slot> slots(a.slots_.size());
  for (const GpuId g : a.down_) {
    slots[static_cast<std::size_t>(g)].health = a.slots_[static_cast<std::size_t>(g)].health;
  }
  return from_slots(std::move(slots));
}

void Assignment::set_local_batch(GpuId gpu, int local_batch) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  ONES_EXPECT(local_batch >= 1);
  auto& s = slots_[static_cast<std::size_t>(gpu)];
  ONES_EXPECT_MSG(s.occupied(), "cannot set a batch size on an idle GPU");
  find_stat(s.job)->global_batch += local_batch - s.local_batch;
  s.local_batch = local_batch;
}

int Assignment::global_batch(JobId job) const {
  const JobStat* stat = find_stat(job);
  return stat != nullptr ? stat->global_batch : 0;
}

int Assignment::gpu_count(JobId job) const {
  const JobStat* stat = find_stat(job);
  return stat != nullptr ? static_cast<int>(stat->gpus.size()) : 0;
}

std::span<const GpuId> Assignment::gpus_of(JobId job) const {
  const JobStat* stat = find_stat(job);
  if (stat == nullptr) return {};
  return stat->gpus;
}

std::span<const JobId> Assignment::running_jobs() const {
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

int Assignment::idle_count() const { return static_cast<int>(idle_.size()); }

bool Assignment::same_placement(const Assignment& other, JobId job) const {
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

std::string Assignment::to_string() const {
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

void Assignment::check_invariants() const {
  for (const auto& s : slots_) {
    if (s.occupied()) {
      ONES_EXPECT_MSG(s.local_batch >= 1, "occupied slot with local batch < 1");
    } else {
      ONES_EXPECT_MSG(s.local_batch == 0, "idle slot carries a batch size");
    }
  }
}

void Assignment::audit_indexes() const {
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

AssignmentDelta diff(const Assignment& prev, const Assignment& next) {
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

}  // namespace ones::cluster
