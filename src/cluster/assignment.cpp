#include "cluster/assignment.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
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

/// An index bucket that points at no jobs_ entry.
constexpr int kEmptyBucket = -1;
/// A `last` for Assignment::shift_lists that reaches every list.
constexpr int kLastList = std::numeric_limits<int>::max();
/// Smallest non-empty index: 8 buckets.
constexpr int kMinIndexBits = 3;

/// from_slots' run list, reused so that it does not allocate once warm.
/// One per thread: genomes are built on every thread of a grid.
thread_local std::vector<int> scratch_runs;

/// log2 of the bucket count the index gets when rebuilt for `jobs` entries:
/// the smallest power of two holding two buckets per entry (none for none).
int index_bits_for(std::size_t jobs) {
  if (jobs == 0) return 0;
  return std::max(kMinIndexBits, static_cast<int>(std::bit_width(2 * jobs - 1)));
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

std::size_t Assignment::home(JobId job) const {
  // The high bits of a multiplicative hash: ids that share low bits (a
  // stride of 1,000, say) still spread over the table.
  return static_cast<std::size_t>((static_cast<std::uint64_t>(job) * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - index_bits_));
}

std::size_t Assignment::probe(JobId job) const {
  const std::size_t mask = bucket_count() - 1;
  const int* const table = buf_.data() + lists_end();
  // Linear probing; at most half the buckets are used, so an empty one
  // always ends the probe.
  std::size_t b = home(job);
  for (int pos = table[b]; pos != kEmptyBucket && jobs_[static_cast<std::size_t>(pos)].job != job;
       pos = table[b]) {
    b = (b + 1) & mask;
  }
  return b;
}

const Assignment::JobStat* Assignment::find_stat(JobId job) const {
  if (index_bits_ == 0) return nullptr;
  const int pos = buf_[static_cast<std::size_t>(lists_end()) + probe(job)];
  return pos == kEmptyBucket ? nullptr : &jobs_[static_cast<std::size_t>(pos)];
}

Assignment::JobStat* Assignment::find_stat(JobId job) {
  return const_cast<JobStat*>(std::as_const(*this).find_stat(job));
}

std::size_t Assignment::bucket_of(std::size_t pos) const {
  const std::size_t mask = bucket_count() - 1;
  const int* const table = buf_.data() + lists_end();
  std::size_t b = home(jobs_[pos].job);
  for (; table[b] != static_cast<int>(pos); b = (b + 1) & mask) {
    ONES_EXPECT_MSG(table[b] != kEmptyBucket, "job index entry missing");
  }
  return b;
}

void Assignment::index_insert(std::size_t pos) {
  const std::size_t mask = bucket_count() - 1;
  int* const table = buf_.data() + lists_end();
  std::size_t b = home(jobs_[pos].job);
  while (table[b] != kEmptyBucket) b = (b + 1) & mask;
  table[b] = static_cast<int>(pos);
}

void Assignment::rebuild_index(int bits) {
  const auto end = static_cast<std::size_t>(lists_end());
  index_bits_ = static_cast<std::uint8_t>(bits);
  buf_.resize(end);
  buf_.resize(end + bucket_count(), kEmptyBucket);
  for (std::size_t i = 0; i < jobs_.size(); ++i) index_insert(i);
}

Assignment::JobStat& Assignment::add_stat(JobId job) {
  // An empty list at the end of the lists.
  jobs_.push_back(JobStat{job, 0, lists_end(), 0});
  if (2 * jobs_.size() > bucket_count()) {
    rebuild_index(index_bits_for(jobs_.size()));
  } else {
    index_insert(jobs_.size() - 1);
  }
  return jobs_.back();
}

void Assignment::drop_stat(std::size_t pos) {
  // Backward-shift deletion: walk the probe run after the freed bucket and
  // pull back every entry whose home does not lie between the hole and it,
  // so no later probe meets an empty bucket before its entry.
  const std::size_t mask = bucket_count() - 1;
  int* const table = buf_.data() + lists_end();
  std::size_t hole = bucket_of(pos);
  for (std::size_t b = (hole + 1) & mask; table[b] != kEmptyBucket; b = (b + 1) & mask) {
    const std::size_t h = home(jobs_[static_cast<std::size_t>(table[b])].job);
    if (((b - h) & mask) >= ((b - hole) & mask)) {
      table[hole] = table[b];
      hole = b;
    }
  }
  table[hole] = kEmptyBucket;
  // The last stat fills the gap, so no other entry moves.
  const std::size_t last = jobs_.size() - 1;
  if (pos != last) {
    table[bucket_of(last)] = static_cast<int>(pos);
    jobs_[pos] = jobs_[last];
  }
  jobs_.pop_back();
  // Shrink only far below the growth point, so a job count that hovers at
  // a boundary never rebuilds on every entry and exit.
  const int bits = index_bits_for(jobs_.size());
  if (8 * jobs_.size() <= bucket_count() && bits < index_bits_) rebuild_index(bits);
}

void Assignment::shift_lists(int first, int last, int delta) {
  for (JobStat& stat : jobs_) {
    if (stat.begin >= first && stat.begin <= last) stat.begin += delta;
  }
}

std::size_t Assignment::order_bound(std::size_t first, std::size_t last, GpuId gpu) const {
  const auto begin = order_.begin();
  return static_cast<std::size_t>(
      std::lower_bound(begin + static_cast<std::ptrdiff_t>(first),
                       begin + static_cast<std::ptrdiff_t>(last), gpu,
                       [&](JobId j, GpuId g) {
                         return buf_[static_cast<std::size_t>(find_stat(j)->begin)] < g;
                       }) -
      begin);
}

void Assignment::attach(JobId job, GpuId gpu, int local_batch) {
  // The order first, while every front is still the one order_ is sorted by
  // (a GPU moving between lists changes no other job's front).
  JobStat* found = find_stat(job);
  const auto order = order_.begin();
  if (found == nullptr) {
    order_.insert(order + static_cast<std::ptrdiff_t>(order_bound(0, order_.size(), gpu)), job);
  } else if (const GpuId old = buf_[static_cast<std::size_t>(found->begin)]; gpu < old) {
    // A new front: the job moves ahead of the jobs it now starts before.
    const std::size_t at = order_bound(0, order_.size(), old);
    const std::size_t to = order_bound(0, at, gpu);
    std::rotate(order + static_cast<std::ptrdiff_t>(to), order + static_cast<std::ptrdiff_t>(at),
                order + static_cast<std::ptrdiff_t>(at + 1));
  }
  JobStat& stat = found != nullptr ? *found : add_stat(job);
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
  shift_lists(0, stat.begin, -1);
  ++stat.count;
  stat.global_batch += local_batch;
}

void Assignment::detach(JobId job, GpuId gpu, int local_batch) {
  JobStat* found = find_stat(job);
  ONES_EXPECT_MSG(found != nullptr, "job index entry missing");
  JobStat& stat = *found;
  const auto block = buf_.begin() + stat.begin;
  const auto from = std::lower_bound(block, block + stat.count, gpu);
  ONES_EXPECT_MSG(from != block + stat.count && *from == gpu, "index entry missing");
  if (gpu == *block) {
    // The front leaves: the job leaves the order, or moves back behind the
    // jobs that start before its next GPU.
    const auto at = order_.begin() +
                    static_cast<std::ptrdiff_t>(order_bound(0, order_.size(), gpu));
    if (stat.count == 1) {
      order_.erase(at);
    } else {
      const std::size_t to = order_bound(static_cast<std::size_t>(at - order_.begin()) + 1,
                                         order_.size(), block[1]);
      std::rotate(at, at + 1, order_.begin() + static_cast<std::ptrdiff_t>(to));
    }
  }
  if (slots_[static_cast<std::size_t>(gpu)].healthy()) {
    // Back to its sorted place in the idle prefix; everything between moves
    // up one, so the lists up to this job's start one later.
    const auto to = std::lower_bound(buf_.begin(), buf_.begin() + idle_count_, gpu);
    std::rotate(to, from, from + 1);
    ++idle_count_;
    shift_lists(0, stat.begin, 1);
  } else {
    // A down GPU is never idle: it leaves the buffer, and the lists after
    // this job's start one earlier.
    buf_.erase(from);
    shift_lists(stat.begin + 1, kLastList, -1);
  }
  --stat.count;
  stat.global_batch -= local_batch;
  if (stat.count == 0) drop_stat(static_cast<std::size_t>(found - jobs_.data()));
}

void Assignment::place(GpuId gpu, JobId job, int local_batch) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  ONES_EXPECT_MSG(job != kInvalidJob, "cannot place the invalid job");
  ONES_EXPECT_MSG(local_batch >= 1, "a worker needs at least one sample per step");
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  ONES_EXPECT_MSG(s.healthy(), "cannot place a worker on a down GPU");
  if (s.job == job && s.local_batch == local_batch) return;  // nothing moves
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
  const JobStat* found = find_stat(job);
  if (found == nullptr) return 0;
  const JobStat stat = *found;
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(order_bound(
                                   0, order_.size(), buf_[static_cast<std::size_t>(stat.begin)])));
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
  // it lost the dropped ones (one pass: a shifted list may cross `begin`).
  for (JobStat& other : jobs_) {
    if (other.begin < stat.begin) {
      other.begin += kept;
    } else if (other.begin > stat.begin) {
      other.begin += kept - stat.count;
    }
  }
  drop_stat(static_cast<std::size_t>(found - jobs_.data()));
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
      shift_lists(0, kLastList, -1);
    }
  } else if (!was_healthy && s.healthy()) {
    erase_sorted(down_, gpu);
    if (!s.occupied()) {
      buf_.insert(std::lower_bound(buf_.begin(), idle_end, gpu), gpu);
      ++idle_count_;
      shift_lists(0, kLastList, 1);
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
  // Every healthy GPU is idle or a worker's, so the lists end at G - down
  // and the index goes in after them once, sized for the runs: it never
  // grows during the scan.
  out.index_bits_ = static_cast<std::uint8_t>(index_bits_for(runs));
  const std::size_t lists_end = out.slots_.size() - down;
  out.buf_.assign(lists_end + out.bucket_count(), kEmptyBucket);
  // Each run's stat, so that the fill below probes no more.
  std::vector<int>& run_stat = scratch_runs;
  run_stat.clear();
  JobStat* stat = nullptr;  // the previous slot's job: genomes keep workers adjacent
  for (int g = 0; g < out.num_gpus(); ++g) {
    const Slot& s = out.slots_[static_cast<std::size_t>(g)];
    if (!s.healthy()) out.down_.push_back(g);
    if (!s.occupied()) continue;
    if (stat == nullptr || stat->job != s.job) {
      int& bucket = out.buf_[lists_end + out.probe(s.job)];
      if (bucket == kEmptyBucket) {
        // First occurrence: the scan discovers jobs in running_jobs() order.
        bucket = static_cast<int>(out.jobs_.size());
        out.jobs_.push_back(JobStat{s.job, 0, 0, 0});
        out.order_.push_back(s.job);
      }
      run_stat.push_back(bucket);
      stat = &out.jobs_[static_cast<std::size_t>(bucket)];
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
  out.idle_count_ = idle;
  int next_idle = 0;
  auto next_run = run_stat.begin();
  stat = nullptr;
  for (int g = 0; g < out.num_gpus(); ++g) {
    const Slot& s = out.slots_[static_cast<std::size_t>(g)];
    if (!s.occupied()) {
      if (s.healthy()) out.buf_[static_cast<std::size_t>(next_idle++)] = g;
      continue;
    }
    if (stat == nullptr || stat->job != s.job) {
      stat = &out.jobs_[static_cast<std::size_t>(*next_run++)];
    }
    out.buf_[static_cast<std::size_t>(stat->begin + stat->count++)] = g;  // g ascending
  }
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

std::span<const JobId> Assignment::running_jobs() const { return order_; }

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
  std::vector<Expected> jobs;  // ascending by JobId
  std::vector<JobId> order;
  const auto expected = [&](JobId j) {
    return std::lower_bound(jobs.begin(), jobs.end(), j,
                            [](const Expected& a, JobId b) { return a.job < b; });
  };
  for (int g = 0; g < num_gpus(); ++g) {
    const Slot& s = slots_[static_cast<std::size_t>(g)];
    if (!s.healthy()) down.push_back(g);
    if (!s.occupied()) {
      if (s.healthy()) idle.push_back(g);
      continue;
    }
    const auto it = expected(s.job);
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
  // Every placed job resolves to a stat with its batch and GPUs.
  for (const Expected& e : jobs) {
    const JobStat* stat = find_stat(e.job);
    ONES_EXPECT_MSG(stat != nullptr, "job index does not resolve a placed job");
    ONES_EXPECT_MSG(stat->job == e.job, "job index diverged: wrong job");
    ONES_EXPECT_MSG(stat->global_batch == e.global_batch,
                    "job index diverged: stale global batch");
    const auto gpus = gpus_of(e.job);
    ONES_EXPECT_MSG(std::equal(e.gpus.begin(), e.gpus.end(), gpus.begin(), gpus.end()),
                    "job index diverged: stale GPU list");
  }
  // The lists tile buf_ between the idle prefix and the index.
  std::vector<std::pair<int, int>> spans;
  spans.reserve(jobs_.size());
  for (const JobStat& st : jobs_) spans.emplace_back(st.begin, st.count);
  std::sort(spans.begin(), spans.end());
  int begin = idle_count_;
  for (const auto& [first, count] : spans) {
    ONES_EXPECT_MSG(first == begin, "job index diverged: misplaced GPU list");
    begin += count;
  }
  const std::size_t buckets = bucket_count();
  ONES_EXPECT_MSG(buf_.size() >= buckets && begin == lists_end(),
                  "GPU-list buffer holds entries no index owns");
  // The job index: two buckets or more per stat, each stat in exactly one
  // bucket, and no absent id resolving: the invalid id and the neighbours
  // of every placed one (the ids most likely to share its probe run).
  ONES_EXPECT_MSG(jobs_.empty() || buckets >= 2 * jobs_.size(),
                  "job index is more than half full");
  std::vector<int> hits(jobs_.size(), 0);
  for (auto it = buf_.begin() + lists_end(); it != buf_.end(); ++it) {
    if (*it == kEmptyBucket) continue;
    ONES_EXPECT_MSG(*it >= 0 && *it < static_cast<int>(jobs_.size()),
                    "job index points outside the job stats");
    ++hits[static_cast<std::size_t>(*it)];
  }
  ONES_EXPECT_MSG(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }),
                  "job index holds a stat other than once");
  const auto expect_absent = [&](JobId j) {
    const auto it = expected(j);
    if (it != jobs.end() && it->job == j) return;  // placed after all
    ONES_EXPECT_MSG(find_stat(j) == nullptr, "job index resolves an absent job");
  };
  expect_absent(kInvalidJob);
  for (const Expected& e : jobs) {
    expect_absent(e.job - 1);
    expect_absent(e.job + 1);
  }
  ONES_EXPECT_MSG(order == order_, "running-job order diverged from the slot array");
}

AssignmentDelta diff(const Assignment& prev, const Assignment& next) {
  ONES_EXPECT(prev.num_gpus() == next.num_gpus());
  AssignmentDelta d;
  // Membership through the job index (gpu_count is one probe); output order
  // comes from running_jobs() (first-occurrence).
  for (const JobId j : next.running_jobs()) {
    if (prev.gpu_count(j) == 0) {
      d.started.push_back(j);
    } else if (!prev.same_placement(next, j)) {
      d.reconfigured.push_back(j);  // placement or batches changed
    }
  }
  for (const JobId j : prev.running_jobs()) {
    if (next.gpu_count(j) == 0) d.stopped.push_back(j);
  }
  return d;
}

}  // namespace ones::cluster
