// Scheduler interface and the cluster state exposed to scheduling policies.
//
// Every scheduler — ONES, DRL, Tiresias, Optimus, FIFO, SRTF — implements
// the same callback interface and runs on the same simulation driver, so
// comparisons isolate policy differences exactly as the paper's shared
// testbed did.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "common/ids.hpp"
#include "model/task.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"

namespace ones::telemetry {
class MetricsRegistry;
}

namespace ones::prof {
class Profiler;
}

namespace ones::energy {
class PowerModel;
}

namespace ones::sched {

/// Recovering: the job lost its workers to a failure and sits out a backoff
/// window before rejoining the queue (DESIGN.md §13). Schedulers do not see
/// Recovering jobs in waiting_jobs(); placing one anyway is allowed and
/// simply ends the backoff early.
enum class JobStatus { Waiting, Running, Completed, Recovering };

/// How a scheduler's re-configurations are executed, which determines the
/// cost charged per change (paper §4.3): ONES uses the elastic mechanism
/// (~1 s); the baselines use checkpoint-based migration (tens of seconds).
enum class ScalingMechanism { Elastic, Checkpoint };

/// One row of the per-epoch progress upload (paper §3.1: workers report
/// progress to the central scheduler at the end of each epoch).
struct EpochLogEntry {
  double time_s = 0.0;
  double samples_processed = 0.0;
  double train_loss = 0.0;
  double val_accuracy = 0.0;
  int global_batch = 0;
};

/// Everything a scheduler may observe about a job. No ground-truth
/// convergence state leaks through this struct; schedulers that want
/// predictions must build them from the epoch log (as ONES and Optimus do).
struct JobView {
  workload::JobSpec spec;
  const model::TaskProfile* profile = nullptr;  ///< public job metadata
  JobStatus status = JobStatus::Waiting;

  double samples_processed = 0.0;  ///< Y_processed
  double exec_time_s = 0.0;        ///< T_processed
  double throughput_sps = 0.0;     ///< last measured throughput
  double train_loss = 0.0;
  double val_accuracy = 0.0;
  double init_loss = 0.0;          ///< loss measured before training

  /// The job ended abnormally (killed / crashed) before converging. Such
  /// jobs still free their resources through a JobComplete event, but their
  /// history must not be mistaken for a converged training run.
  bool aborted = false;

  int gpus = 0;          ///< c_j under the current schedule
  int global_batch = 0;  ///< B_j under the current schedule
  int epochs_completed = 0;
  std::vector<EpochLogEntry> epoch_log;

  double dataset_size() const { return static_cast<double>(spec.variant.dataset_size); }
};

class ThroughputOracle;

/// CapacityChange: healthy capacity moved under the scheduler (a GPU went
/// down or came back, or a recovering job rejoined the queue). Delivered
/// with the victim job when the change is job-scoped, kInvalidJob otherwise.
enum class EventKind { JobArrival, EpochComplete, JobComplete, Timer, CapacityChange };

const char* event_name(EventKind kind);

struct SchedulerEvent {
  EventKind kind = EventKind::Timer;
  JobId job = kInvalidJob;  ///< subject job (invalid for Timer)
};

/// Snapshot handed to the scheduler on every event.
struct ClusterState {
  double now = 0.0;
  const cluster::Topology* topology = nullptr;
  const cluster::Assignment* current = nullptr;
  const ThroughputOracle* oracle = nullptr;
  /// The driver's power model (DESIGN.md §10) — the same instance the
  /// EnergyMeter bills with, so energy-aware policies (ONES's lambda_energy
  /// blend, the PowerCap baseline) evaluate candidates against the meter
  /// they will be charged by.
  const energy::PowerModel* power = nullptr;
  /// Ground-truth remaining raw samples of a job at a given fixed batch.
  /// ONLY the SRTF-oracle upper-bound baseline may use this; production
  /// schedulers must predict from the epoch logs instead.
  std::function<double(JobId, int)> true_remaining_samples;

  /// All submitted jobs (any status), in arrival order.
  const std::vector<const JobView*>& jobs() const { return jobs_; }
  /// The non-Completed subset of jobs(), in the same order.
  const std::vector<const JobView*>& active_jobs() const { return active_; }
  /// The view of job `id`; null for a job never admitted.
  const JobView* job(JobId id) const {
    const auto i = static_cast<std::size_t>(id);  // a negative id wraps out of range
    return i < by_id_.size() ? by_id_[i] : nullptr;
  }
  /// One past the largest admitted JobId: the size of per-job tables.
  std::size_t id_bound() const { return by_id_.size(); }
  std::vector<const JobView*> waiting_jobs() const;
  std::vector<const JobView*> running_jobs() const;

  /// The job lists above are incremental scheduler state (DESIGN.md §12),
  /// written only here: a job enters every list once at submission and
  /// leaves the active list once when it completes.
  void admit(const JobView& job);
  void retire(const JobView& job);
  /// Recompute the active list and the JobId table from jobs() and throw on
  /// divergence (SimulationConfig::audit_incremental).
  void audit_indexes() const;

 private:
  std::vector<const JobView*> jobs_;
  std::vector<const JobView*> active_;
  std::vector<const JobView*> by_id_;  ///< by JobId; null if never admitted
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;
  virtual ScalingMechanism mechanism() const { return ScalingMechanism::Checkpoint; }
  /// Non-zero: the driver additionally delivers Timer events at this period
  /// (Optimus reschedules every 10 minutes).
  virtual double period_s() const { return 0.0; }

  /// React to a cluster event. Return a full new Assignment to re-schedule
  /// the cluster, or nullopt to keep the current allocation.
  virtual std::optional<cluster::Assignment> on_event(const ClusterState& state,
                                                      const SchedulerEvent& event) = 0;

  /// Install (or clear, with nullptr) the trace sink for policy-internal
  /// records such as ONES's EvolutionStep. The simulation driver wires this
  /// from its own config on construction; the sink is not owned.
  void set_trace_sink(trace::TraceSink* sink) { trace_sink_ = sink; }

  /// Install (or clear) the metrics registry for policy-internal instruments
  /// (ONES's evolution counters, the predictor's error gauge). Virtual so
  /// composite schedulers can propagate the pointer to their sub-components;
  /// the registry is not owned. Same contract as the trace sink: null by
  /// default, every emission site null-guarded, never affects decisions.
  virtual void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Install (or clear) the host-time profiler for policy-internal spans
  /// (ONES's evolution operator steps, the predictor's fits — DESIGN.md
  /// §14). Virtual for the same reason as set_metrics: composite schedulers
  /// propagate the pointer to their sub-components. Identical contract:
  /// not owned, null by default, every span site costs one branch when off,
  /// and profiling never affects decisions.
  virtual void set_profiler(prof::Profiler* profiler) { profiler_ = profiler; }

 protected:
  /// Null by default: emission sites must check before building a record.
  trace::TraceSink* trace_sink_ = nullptr;
  /// Null by default: emission sites must check before recording.
  telemetry::MetricsRegistry* metrics_ = nullptr;
  /// Null by default: span sites cost one branch until a profiler attaches.
  prof::Profiler* profiler_ = nullptr;
};

}  // namespace ones::sched
