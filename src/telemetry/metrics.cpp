#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "common/expect.hpp"
#include "common/math_util.hpp"

namespace ones::telemetry {

void MetricsCollector::on_submit(JobId job, double now) {
  ONES_EXPECT_MSG(!jobs_.count(job), "job submitted twice");
  JobMetrics m;
  m.id = job;
  m.arrival_s = now;
  jobs_.emplace(job, m);
}

void MetricsCollector::on_run_start(JobId job, double now) {
  ONES_EXPECT_MSG(jobs_.count(job), "run_start for unknown job");
  ONES_EXPECT_MSG(!run_start_.count(job), "job already running");
  run_start_.emplace(job, now);
}

void MetricsCollector::on_run_end(JobId job, double now, bool preempted) {
  auto it = jobs_.find(job);
  ONES_EXPECT_MSG(it != jobs_.end(), "run_end for unknown job");
  auto rs = run_start_.find(job);
  ONES_EXPECT_MSG(rs != run_start_.end(), "run_end for a job that is not running");
  ONES_EXPECT(now >= rs->second);
  it->second.exec_time_s += now - rs->second;
  if (preempted) it->second.preemptions += 1;
  run_start_.erase(rs);
}

void MetricsCollector::on_complete(JobId job, double now) {
  auto it = jobs_.find(job);
  ONES_EXPECT_MSG(it != jobs_.end(), "complete for unknown job");
  ONES_EXPECT_MSG(!run_start_.count(job), "end the run interval before completing");
  ONES_EXPECT_MSG(!it->second.completed(), "job completed twice");
  it->second.completion_s = now;
  makespan_ = std::max(makespan_, now);
}

void MetricsCollector::on_busy_gpus(int busy, double now) {
  ONES_EXPECT(busy >= 0);
  ONES_EXPECT(now >= last_busy_change_);
  busy_integral_ += static_cast<double>(busy_now_) * (now - last_busy_change_);
  busy_now_ = busy;
  last_busy_change_ = now;
}

const JobMetrics& MetricsCollector::job(JobId job) const {
  auto it = jobs_.find(job);
  ONES_EXPECT_MSG(it != jobs_.end(), "unknown job");
  return it->second;
}

std::vector<JobId> MetricsCollector::job_ids() const {
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, m] : jobs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t MetricsCollector::completed() const {
  std::size_t n = 0;
  for (const auto& [id, m] : jobs_) {
    if (m.completed() && !m.aborted) ++n;
  }
  return n;
}

std::size_t MetricsCollector::aborted() const {
  std::size_t n = 0;
  for (const auto& [id, m] : jobs_) {
    if (m.aborted) ++n;
  }
  return n;
}

void MetricsCollector::on_abort(JobId job, double now) {
  auto it = jobs_.find(job);
  ONES_EXPECT_MSG(it != jobs_.end(), "abort for unknown job");
  ONES_EXPECT_MSG(!run_start_.count(job), "end the run interval before aborting");
  ONES_EXPECT_MSG(!it->second.completed(), "job already finished");
  it->second.completion_s = now;
  it->second.aborted = true;
  makespan_ = std::max(makespan_, now);
}

std::vector<double> MetricsCollector::jcts() const {
  std::vector<double> out;
  for (const auto& [id, m] : jobs_) {
    if (m.completed() && !m.aborted) out.push_back(m.jct());
  }
  return out;
}

std::vector<double> MetricsCollector::exec_times() const {
  std::vector<double> out;
  for (const auto& [id, m] : jobs_) {
    if (m.completed() && !m.aborted) out.push_back(m.exec_time_s);
  }
  return out;
}

std::vector<double> MetricsCollector::queue_times() const {
  std::vector<double> out;
  for (const auto& [id, m] : jobs_) {
    if (m.completed() && !m.aborted) out.push_back(m.queue_time());
  }
  return out;
}

std::unordered_map<JobId, double> MetricsCollector::jct_by_job() const {
  std::unordered_map<JobId, double> out;
  for (const auto& [id, m] : jobs_) {
    if (m.completed() && !m.aborted) out.emplace(id, m.jct());
  }
  return out;
}

double MetricsCollector::avg_utilization(int capacity, double horizon) const {
  ONES_EXPECT(capacity > 0);
  if (horizon <= 0.0) return 0.0;
  // Include the tail segment after the last change.
  double integral = busy_integral_;
  if (horizon > last_busy_change_) {
    integral += static_cast<double>(busy_now_) * (horizon - last_busy_change_);
  }
  return integral / (static_cast<double>(capacity) * horizon);
}

Summary summarize(const std::string& scheduler, const MetricsCollector& metrics,
                  int capacity) {
  Summary s;
  s.scheduler = scheduler;
  const auto jct = metrics.jcts();
  summarize_jcts(s, jct, metrics.exec_times(), metrics.queue_times());
  if (jct.empty()) return s;
  s.makespan = metrics.makespan();
  s.utilization = metrics.avg_utilization(capacity, s.makespan);
  return s;
}

void summarize_jcts(Summary& summary, const std::vector<double>& jct,
                    const std::vector<double>& exec, const std::vector<double>& queue) {
  summary.jobs = jct.size();
  if (jct.empty()) return;
  summary.avg_jct = mean_of(jct);
  summary.avg_exec = mean_of(exec);
  summary.avg_queue = mean_of(queue);
  summary.p50_jct = quantile(jct, 0.5);
  summary.p90_jct = quantile(jct, 0.9);
  summary.max_jct = quantile(jct, 1.0);
}

std::string format_summary_header() {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%-10s %6s %10s %10s %10s %9s %9s %9s %9s %6s %9s",
                "scheduler", "jobs", "avgJCT", "avgExec", "avgQueue", "p50JCT",
                "p90JCT", "maxJCT", "makespan", "util", "energyMJ");
  return buf;
}

std::string format_summary_row(const Summary& s) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%-10s %6zu %10.1f %10.1f %10.1f %9.1f %9.1f %9.1f %9.1f %5.1f%% %9.2f",
                s.scheduler.c_str(), s.jobs, s.avg_jct, s.avg_exec, s.avg_queue,
                s.p50_jct, s.p90_jct, s.max_jct, s.makespan, 100.0 * s.utilization,
                s.cluster_joules / 1e6);
  return buf;
}

}  // namespace ones::telemetry
