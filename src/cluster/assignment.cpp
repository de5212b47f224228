#include "cluster/assignment.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
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
  buf_.resize(static_cast<std::size_t>(num_gpus));
  std::iota(buf_.begin(), buf_.end(), GpuId{0});
  idle_count_ = num_gpus;
}

const Slot& Assignment::slot(GpuId gpu) const {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  return slots_[static_cast<std::size_t>(gpu)];
}

std::size_t Assignment::lower_stat(JobId job) const {
  const auto it = std::lower_bound(
      jobs_.begin(), jobs_.end(), job,
      [](const JobStat& s, JobId j) { return s.job < j; });
  return static_cast<std::size_t>(it - jobs_.begin());
}

const Assignment::JobStat* Assignment::find_stat(JobId job) const {
  const std::size_t i = lower_stat(job);
  if (i == jobs_.size() || jobs_[i].job != job) return nullptr;
  return &jobs_[i];
}

Assignment::JobStat* Assignment::find_stat(JobId job) {
  return const_cast<JobStat*>(std::as_const(*this).find_stat(job));
}

void Assignment::shift_begins(std::size_t first, std::size_t last, int delta) {
  for (std::size_t i = first; i < last; ++i) jobs_[i].begin += delta;
}

void Assignment::attach(JobId job, GpuId gpu, int local_batch) {
  const std::size_t si = lower_stat(job);
  if (si == jobs_.size() || jobs_[si].job != job) {
    // An empty list at the spot the job's JobId order gives it.
    const int begin = si < jobs_.size() ? jobs_[si].begin : static_cast<int>(buf_.size());
    jobs_.insert(jobs_.begin() + static_cast<std::ptrdiff_t>(si), JobStat{job, 0, begin, 0});
  }
  JobStat& stat = jobs_[si];
  const auto idle_end = buf_.begin() + idle_count_;
  const auto from = std::lower_bound(buf_.begin(), idle_end, gpu);
  ONES_EXPECT_MSG(from != idle_end && *from == gpu, "index entry missing");
  const auto block = buf_.begin() + stat.begin;
  const auto to = std::lower_bound(block, block + stat.count, gpu);
  // The GPU leaves the idle prefix for its sorted place in the job's list;
  // everything between moves down one, so the lists up to this job's start
  // one earlier.
  std::rotate(from, from + 1, to);
  --idle_count_;
  shift_begins(0, si + 1, -1);
  ++stat.count;
  stat.global_batch += local_batch;
  order_valid_ = false;
}

void Assignment::detach(JobId job, GpuId gpu, int local_batch) {
  const std::size_t si = lower_stat(job);
  ONES_EXPECT_MSG(si < jobs_.size() && jobs_[si].job == job, "job index entry missing");
  JobStat& stat = jobs_[si];
  const auto block = buf_.begin() + stat.begin;
  const auto from = std::lower_bound(block, block + stat.count, gpu);
  ONES_EXPECT_MSG(from != block + stat.count && *from == gpu, "index entry missing");
  if (slots_[static_cast<std::size_t>(gpu)].healthy()) {
    // Back to its sorted place in the idle prefix; everything between moves
    // up one, so the lists up to this job's start one later.
    const auto to = std::lower_bound(buf_.begin(), buf_.begin() + idle_count_, gpu);
    std::rotate(to, from, from + 1);
    ++idle_count_;
    shift_begins(0, si + 1, 1);
  } else {
    // A down GPU is never idle: it leaves the buffer, and the lists after
    // this job's start one earlier.
    buf_.erase(from);
    shift_begins(si + 1, jobs_.size(), -1);
  }
  --stat.count;
  stat.global_batch -= local_batch;
  if (stat.count == 0) jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(si));
  order_valid_ = false;
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
    detach(s.job, gpu, s.local_batch);  // healthy: via the idle prefix
  }
  s = Slot{job, local_batch, s.health};
  attach(job, gpu, local_batch);
}

void Assignment::clear(GpuId gpu) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  if (!s.occupied()) return;
  detach(s.job, gpu, s.local_batch);
  s = Slot{kInvalidJob, 0, s.health};
}

int Assignment::evict(JobId job) {
  const std::size_t si = lower_stat(job);
  if (si == jobs_.size() || jobs_[si].job != job) return 0;
  const JobStat stat = jobs_[si];
  // Rotate the job's list to just after the idle prefix, free its slots,
  // drop its down GPUs and merge the rest (both halves ascending) into the
  // idle prefix.
  const auto idle_end = buf_.begin() + idle_count_;
  const auto block_end = idle_end + stat.count;
  std::rotate(idle_end, buf_.begin() + stat.begin, buf_.begin() + stat.begin + stat.count);
  for (auto it = idle_end; it != block_end; ++it) {
    Slot& s = slots_[static_cast<std::size_t>(*it)];
    s = Slot{kInvalidJob, 0, s.health};
  }
  const auto kept_end = std::remove_if(idle_end, block_end, [&](GpuId g) {
    return !slots_[static_cast<std::size_t>(g)].healthy();
  });
  const auto kept = static_cast<int>(kept_end - idle_end);
  buf_.erase(kept_end, block_end);
  std::inplace_merge(buf_.begin(), buf_.begin() + idle_count_,
                     buf_.begin() + idle_count_ + kept);
  idle_count_ += kept;
  // Lists before the job's gained the kept GPUs ahead of them; lists after
  // it lost the dropped ones.
  shift_begins(0, si, kept);
  shift_begins(si + 1, jobs_.size(), kept - stat.count);
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(si));
  order_valid_ = false;
  return stat.count;
}

void Assignment::set_health(GpuId gpu, SlotHealth health) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  if (s.health == health) return;
  const bool was_healthy = s.healthy();
  s.health = health;
  const auto idle_end = buf_.begin() + idle_count_;
  if (was_healthy && !s.healthy()) {
    insert_sorted(down_, gpu);
    if (!s.occupied()) {
      const auto it = std::lower_bound(buf_.begin(), idle_end, gpu);
      ONES_EXPECT_MSG(it != idle_end && *it == gpu, "index entry missing");
      buf_.erase(it);
      --idle_count_;
      shift_begins(0, jobs_.size(), -1);
    }
  } else if (!was_healthy && s.healthy()) {
    erase_sorted(down_, gpu);
    if (!s.occupied()) {
      buf_.insert(std::lower_bound(buf_.begin(), idle_end, gpu), gpu);
      ++idle_count_;
      shift_begins(0, jobs_.size(), 1);
    }
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
  // Count first: idle and down GPUs, and the runs of adjacent workers of one
  // job, which bound the number of jobs.
  int idle = 0;
  std::size_t down = 0;
  std::size_t runs = 0;
  JobId prev = kInvalidJob;
  for (const Slot& s : out.slots_) {
    if (!s.healthy()) ++down;
    if (!s.occupied()) {
      ONES_EXPECT_MSG(s.local_batch == 0, "idle slot carries a batch size");
      if (s.healthy()) ++idle;
      continue;
    }
    ONES_EXPECT_MSG(s.local_batch >= 1, "a worker needs at least one sample per step");
    ONES_EXPECT_MSG(s.healthy(), "cannot place a worker on a down GPU");
    if (s.job != prev) ++runs;
    prev = s.job;
  }
  out.down_.reserve(down);
  out.jobs_.reserve(runs);
  out.order_.reserve(runs);
  JobStat* stat = nullptr;  // the previous slot's job: genomes keep workers adjacent
  for (int g = 0; g < out.num_gpus(); ++g) {
    const Slot& s = out.slots_[static_cast<std::size_t>(g)];
    if (!s.healthy()) out.down_.push_back(g);
    if (!s.occupied()) continue;
    if (stat == nullptr || stat->job != s.job) stat = out.find_stat(s.job);
    if (stat == nullptr) {
      // First occurrence: the scan discovers jobs in running_jobs() order.
      const std::size_t at = out.lower_stat(s.job);
      stat = &*out.jobs_.insert(out.jobs_.begin() + static_cast<std::ptrdiff_t>(at),
                                JobStat{s.job, 0, 0, 0});
      out.order_.push_back(s.job);
    }
    stat->global_batch += s.local_batch;
    ++stat->count;
  }
  // Then fill: each job's list starts where the previous one ends.
  int begin = idle;
  for (JobStat& st : out.jobs_) {
    st.begin = begin;
    begin += st.count;
    st.count = 0;
  }
  out.buf_.resize(static_cast<std::size_t>(begin));
  out.idle_count_ = idle;
  int next_idle = 0;
  stat = nullptr;
  for (int g = 0; g < out.num_gpus(); ++g) {
    const Slot& s = out.slots_[static_cast<std::size_t>(g)];
    if (!s.occupied()) {
      if (s.healthy()) out.buf_[static_cast<std::size_t>(next_idle++)] = g;
      continue;
    }
    if (stat == nullptr || stat->job != s.job) stat = out.find_stat(s.job);
    out.buf_[static_cast<std::size_t>(stat->begin + stat->count++)] = g;  // g ascending
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
  return stat != nullptr ? stat->count : 0;
}

std::span<const GpuId> Assignment::gpus_of(JobId job) const {
  const JobStat* stat = find_stat(job);
  if (stat == nullptr) return {};
  return {buf_.data() + stat->begin, static_cast<std::size_t>(stat->count)};
}

std::span<const JobId> Assignment::running_jobs() const {
  if (!order_valid_) {
    // First-occurrence order over the slot array == ascending order of each
    // job's lowest-numbered GPU (two jobs cannot share a GPU).
    std::vector<std::pair<GpuId, JobId>> by_front;
    by_front.reserve(jobs_.size());
    for (const JobStat& s : jobs_) {
      by_front.emplace_back(buf_[static_cast<std::size_t>(s.begin)], s.job);
    }
    std::sort(by_front.begin(), by_front.end());
    order_.clear();
    for (const auto& [front, job] : by_front) order_.push_back(job);
    order_valid_ = true;
  }
  return order_;
}

bool Assignment::same_placement(const Assignment& other, JobId job) const {
  const auto mine = gpus_of(job);
  const auto theirs = other.gpus_of(job);
  if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end())) return false;
  for (const GpuId g : mine) {
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
  struct Expected {
    JobId job;
    int global_batch;
    std::vector<GpuId> gpus;
  };
  std::vector<GpuId> idle;
  std::vector<GpuId> down;
  std::vector<Expected> jobs;
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
        [](const Expected& a, JobId j) { return a.job < j; });
    if (it == jobs.end() || it->job != s.job) {
      jobs.insert(it, Expected{s.job, s.local_batch, {g}});
      order.push_back(s.job);
    } else {
      it->global_batch += s.local_batch;
      it->gpus.push_back(g);  // g ascending: stays sorted
    }
  }
  const auto idle_view = idle_gpus();
  ONES_EXPECT_MSG(std::equal(idle.begin(), idle.end(), idle_view.begin(), idle_view.end()),
                  "idle-GPU index diverged from the slot array");
  ONES_EXPECT_MSG(down == down_, "down-GPU index diverged from the slot array");
  ONES_EXPECT_MSG(jobs.size() == jobs_.size(),
                  "job index has the wrong number of entries");
  int begin = idle_count_;  // the job lists tile buf_ after the idle prefix
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ONES_EXPECT_MSG(jobs[i].job == jobs_[i].job, "job index diverged: wrong job");
    ONES_EXPECT_MSG(jobs[i].global_batch == jobs_[i].global_batch,
                    "job index diverged: stale global batch");
    ONES_EXPECT_MSG(jobs_[i].begin == begin, "job index diverged: misplaced GPU list");
    const auto gpus = gpus_of(jobs_[i].job);
    ONES_EXPECT_MSG(std::equal(jobs[i].gpus.begin(), jobs[i].gpus.end(), gpus.begin(),
                               gpus.end()),
                    "job index diverged: stale GPU list");
    begin += jobs_[i].count;
  }
  ONES_EXPECT_MSG(begin == static_cast<int>(buf_.size()),
                  "GPU-list buffer holds entries no index owns");
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
