// Scheduling metrics (paper §4.1 "Metrics").
//
// The foremost metric is the job completion time (JCT): submission to
// completion. The paper decomposes it into *execution time* (the job is
// actually running on GPUs) and *queuing time* (JCT minus execution time:
// waiting for service, including preempted periods). We also integrate a
// cluster-utilization timeline (busy GPU-seconds / capacity GPU-seconds).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"

namespace ones::telemetry {

struct JobMetrics {
  JobId id = kInvalidJob;
  double arrival_s = 0.0;
  double completion_s = -1.0;  ///< -1 while unfinished
  double exec_time_s = 0.0;    ///< accumulated running time
  int preemptions = 0;         ///< times the job lost its GPUs while unfinished
  bool aborted = false;        ///< ended abnormally (killed / crashed)

  bool completed() const { return completion_s >= 0.0; }
  double jct() const { return completion_s - arrival_s; }
  double queue_time() const { return jct() - exec_time_s; }
};

class MetricsCollector {
 public:
  void on_submit(JobId job, double now);
  /// Job transitions waiting -> running.
  void on_run_start(JobId job, double now);
  /// Job transitions running -> waiting (preemption) or -> completed.
  void on_run_end(JobId job, double now, bool preempted);
  void on_complete(JobId job, double now);
  /// Record an abnormal ending (killed / crashed). The job is finished for
  /// resource accounting but excluded from the JCT statistics.
  void on_abort(JobId job, double now);

  /// Record a change in the number of busy GPUs (for the utilization
  /// integral). Call with the *new* busy count at time `now`.
  void on_busy_gpus(int busy, double now);

  const JobMetrics& job(JobId job) const;
  /// All submitted job ids, ascending.
  std::vector<JobId> job_ids() const;
  std::size_t submitted() const { return jobs_.size(); }
  std::size_t completed() const;  ///< converged normally
  std::size_t aborted() const;

  std::vector<double> jcts() const;
  std::vector<double> exec_times() const;
  std::vector<double> queue_times() const;
  /// JCTs keyed by job id (for paired significance tests across schedulers).
  std::unordered_map<JobId, double> jct_by_job() const;

  /// Mean busy-GPU fraction over [0, horizon] given `capacity` GPUs.
  double avg_utilization(int capacity, double horizon) const;

  /// Completion time of the last finished job.
  double makespan() const { return makespan_; }

 private:
  std::unordered_map<JobId, JobMetrics> jobs_;
  std::unordered_map<JobId, double> run_start_;
  double makespan_ = 0.0;
  // utilization integral
  double busy_integral_ = 0.0;
  double last_busy_change_ = 0.0;
  int busy_now_ = 0;
};

struct Summary {
  std::string scheduler;
  std::size_t jobs = 0;
  double avg_jct = 0.0;
  double avg_exec = 0.0;
  double avg_queue = 0.0;
  double p50_jct = 0.0;
  double p90_jct = 0.0;
  double max_jct = 0.0;
  double makespan = 0.0;
  double utilization = 0.0;  ///< mean busy-GPU fraction over the makespan
  /// Energy objective (DESIGN.md §10): total cluster joules integrated over
  /// the run, and the share not attributable to any job (idle GPUs + node
  /// base power). Filled by the driver/orchestrator, not by summarize().
  double cluster_joules = 0.0;
  double overhead_joules = 0.0;
};

Summary summarize(const std::string& scheduler, const MetricsCollector& metrics,
                  int capacity);

/// Sets `summary`'s job count and JCT statistics (avg JCT / exec / queue,
/// p50 / p90 / max JCT) from finished jobs' JCT, execution and queueing
/// times; the statistics stay 0 when `jct` is empty. summarize() and the
/// orchestrator's seed pooling both use it.
void summarize_jcts(Summary& summary, const std::vector<double>& jct,
                    const std::vector<double>& exec, const std::vector<double>& queue);

std::string format_summary_header();
std::string format_summary_row(const Summary& summary);

}  // namespace ones::telemetry
