#include "core/batch_policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/math_util.hpp"

namespace ones::core {

int BatchLimitManager::floor_limit(const sched::JobView& job) const {
  // R never drops below the single-GPU reference configuration: shrinking
  // the batch further would not make the job any easier to place (one GPU is
  // the minimum either way) — it would only slow its training down.
  const int base = std::min(job.profile->b_ref, job.profile->max_local_batch);
  return std::max(1, base / config_.min_limit_divisor);
}

int BatchLimitManager::cap_limit(const sched::JobView& job) const {
  return std::max(job.profile->b_ref,
                  static_cast<int>(config_.r_cap_multiple * job.profile->b_crit));
}

std::size_t BatchLimitManager::limited(const sched::JobView& job, const char* no_limit) const {
  const auto id = static_cast<std::size_t>(job.spec.id);  // negative ids wrap out of range
  ONES_EXPECT_MSG(id < limits_.size() && limits_[id] > 0, no_limit);
  return id;
}

void BatchLimitManager::on_job_arrival(const sched::JobView& job, double now) {
  ONES_EXPECT_MSG(job.spec.id >= 0, "negative job id");
  const auto id = static_cast<std::size_t>(job.spec.id);
  if (id >= limits_.size()) limits_.resize(id + 1, 0);
  // Start: must fit on one GPU.
  const int r = std::min(job.profile->b_ref, job.profile->max_local_batch);
  limits_[id] = std::max(r, 1);

  if (first_arrival_ < 0.0) first_arrival_ = now;
  last_arrival_ = now;
  ++arrivals_;
}

double BatchLimitManager::arrival_rate() const {
  if (arrivals_ < 2 || last_arrival_ <= first_arrival_) {
    return 1.0 / 60.0;  // prior: about one job a minute
  }
  return static_cast<double>(arrivals_ - 1) / (last_arrival_ - first_arrival_);
}

void BatchLimitManager::on_epoch_complete(const sched::JobView& job) {
  int& r = limits_[limited(job, "epoch for a job with no batch limit")];
  // Combined scale-up / scale-down rule: R' = ceil(2R / (floor(sigma*T)+1)).
  // Young jobs (sigma*T < 1) double; jobs older than 1/sigma grow slower and
  // eventually shrink (Convoy Effect control). See BatchPolicyConfig for why
  // the denominator uses floor rather than the paper's ceil.
  const double denom = std::floor(sigma() * job.exec_time_s) + 1.0;
  const double r_new = std::ceil(2.0 * static_cast<double>(r) / denom);
  r = std::clamp(static_cast<int>(r_new), floor_limit(job), cap_limit(job));
}

void BatchLimitManager::on_left_waiting(const sched::JobView& job) {
  int& r = limits_[limited(job, "waiting job with no batch limit")];
  r = std::max(r / 2, floor_limit(job));
}

void BatchLimitManager::on_preempted(const sched::JobView& job, int batch_before) {
  int& r = limits_[limited(job, "preempted job with no batch limit")];
  // Resume: the job may request at most what it had before preemption.
  if (batch_before >= 1) r = std::min(r, batch_before);
  r = std::max(r, floor_limit(job));
}

void BatchLimitManager::on_completed(JobId job) {
  const auto id = static_cast<std::size_t>(job);  // negative ids wrap out of range
  if (id < limits_.size()) limits_[id] = 0;
}

int BatchLimitManager::limit(const sched::JobView& job) const {
  const int r = limits_[limited(job, "job with no batch limit")];
  return warmed_up(job) ? r : std::min(r, job.profile->max_local_batch);
}

bool BatchLimitManager::warmed_up(const sched::JobView& job) const {
  return job.epochs_completed >= config_.warmup_epochs;
}

}  // namespace ones::core
