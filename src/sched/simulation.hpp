// Cluster simulation driver.
//
// Owns the discrete-event engine, the cluster topology, the arrival trace
// and one Scheduler. Delivers events (arrival / epoch-complete / completion /
// timer) to the scheduler, applies the Assignments it returns, charges the
// appropriate re-configuration costs (elastic vs checkpoint mechanism),
// advances each job's training dynamics and records telemetry.
//
// Job lifecycle per the paper: workers upload progress at the end of every
// epoch (§3.1); a job completes once its validation accuracy has held at or
// above target for 10 consecutive epochs (§4.1); preemption and elastic
// re-configuration are allowed at any time and charge the mechanism's cost
// while the job makes no progress.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/assignment.hpp"
#include "cluster/fault.hpp"
#include "cluster/topology.hpp"
#include "elastic/cost_model.hpp"
#include "energy/meter.hpp"
#include "energy/power_model.hpp"
#include "model/convergence.hpp"
#include "sched/oracle.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace.hpp"

namespace ones::sched {

struct SimulationConfig {
  cluster::TopologyConfig topology;
  model::ConvergenceConfig convergence;
  elastic::CostConfig costs;
  OracleConfig oracle;
  /// Electrical constants for the energy meter (DESIGN.md §10). Unlike the
  /// trace/metrics sinks this IS simulation input: joules are part of the
  /// result, so the orchestrator serializes it into the cache key.
  energy::PowerConfig power;
  /// Fault injection + recovery policy (DESIGN.md §13). Like `power` this IS
  /// simulation input — failures move every metric — so the orchestrator
  /// serializes it into the cache key (schema v4). All-default (disabled)
  /// keeps the run bit-identical to a build without the subsystem.
  cluster::FaultConfig fault;
  /// Hard stop; a correct run finishes long before (all jobs complete).
  double max_sim_time_s = 1e7;
  /// Audit mode (DESIGN.md §12): after every scheduler notification,
  /// recompute all incremental indexes (Assignment's idle/per-job stats, the
  /// driver's active/id job indexes) from first principles and throw on any
  /// divergence. Pure cross-check — it must never change results — so like
  /// the trace/metrics sinks it is deliberately NOT an orchestrator
  /// cache-key input. O(G + J) per event: tests only.
  bool audit_incremental = false;
  /// Keep per-epoch logs in the JobViews (needed by ONES and Optimus).
  bool record_epoch_logs = true;
  /// Structured run tracing (not owned; null — the default — disables it and
  /// costs one branch per emission site). Deliberately NOT part of the
  /// orchestrator cache key: tracing must never change results.
  trace::TraceSink* trace_sink = nullptr;
  /// Sim-time metrics registry (not owned; null — the default — disables all
  /// instrumentation and costs one branch per emission site). Same contract
  /// as the trace sink: deliberately NOT part of the orchestrator cache key,
  /// and attaching a registry must never change results (DESIGN.md §9).
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Host-time profiler (not owned; null — the default — disables all span
  /// sites at one branch each). The driver wires it into the engine and the
  /// scheduler. Same contract as the trace sink and metrics registry:
  /// deliberately NOT part of the orchestrator cache key, and attaching a
  /// profiler must never change results (DESIGN.md §14).
  prof::Profiler* profiler = nullptr;
};

class ClusterSimulation {
 public:
  ClusterSimulation(const SimulationConfig& config, std::vector<workload::JobSpec> trace,
                    Scheduler& scheduler);
  ClusterSimulation(const ClusterSimulation&) = delete;
  ClusterSimulation& operator=(const ClusterSimulation&) = delete;
  ~ClusterSimulation();

  /// Run the whole trace to completion (or to max_sim_time_s).
  void run();

  const telemetry::MetricsCollector& metrics() const { return metrics_; }
  /// Integrated cluster and overhead joules (final after run()).
  const energy::EnergyMeter& energy() const { return energy_; }
  /// telemetry::summarize over this run's metrics with the energy objective
  /// filled in (summarize() itself cannot: telemetry layers below energy).
  telemetry::Summary summary(const std::string& scheduler) const;
  const cluster::Topology& topology() const { return topology_; }
  const cluster::Assignment& current_assignment() const { return current_; }
  const JobView& job_view(JobId job) const;
  /// Jobs that finished (converged normally or aborted).
  std::size_t completed_jobs() const { return completed_count_; }
  bool all_completed() const { return completed_count_ == runtimes_.size(); }
  double now() const { return engine_.now(); }
  /// Number of Assignments the scheduler deployed (schedule churn).
  std::uint64_t deployments() const { return deployments_; }
  /// Total simulator events fired: the deterministic work measure behind the
  /// hyperscale throughput curve (DESIGN.md §12). Leaves out the engine
  /// events that exist only to stamp elastic_resumed trace records, so
  /// tracing never changes it.
  std::uint64_t events_fired() const { return engine_.fired() - trace_only_events_; }

 private:
  struct JobRuntime {
    JobView view;
    std::unique_ptr<model::TrainDynamics> dynamics;
    double tput_sps = 0.0;        ///< true throughput of the live placement
    double produce_start = 0.0;   ///< production resumes after scaling cost
    double last_accrue = 0.0;
    double epoch_samples_done = 0.0;
    sim::EventId epoch_event = 0;
    sim::EventId kill_event = 0;
    sim::EventId resume_event = 0;  ///< pending elastic_resumed trace record
    sim::EventId retry_event = 0;   ///< pending recovery backoff expiry
    bool ever_ran = false;
    int last_batch = 0;  ///< batch before the most recent stop/reconfigure
    model::TrainDynamics::EpochResult last_result;
    // ---- Fault recovery bookkeeping (DESIGN.md §13) ----
    int restarts = 0;           ///< checkpoint-restarts suffered (cumulative)
    double redo_s = 0.0;        ///< work since last checkpoint, redone on restart
    double failed_at = 0.0;     ///< sim time of the failure being recovered
    double lost_gpu_s = 0.0;    ///< accounted lost GPU-seconds (I10)
    bool pending_recovery = false;  ///< JobRecovered owed at next start
    std::optional<telemetry::TimelineSampler::SeriesId> batch_series;  ///< first batch point on
  };

  void on_arrival(JobId job);
  void on_epoch_event(JobId job);
  void on_kill_event(JobId job);
  void on_timer();
  /// Fault-injection entry point: apply a batch of health changes to the
  /// live assignment, route victim jobs into recovery and notify the
  /// scheduler with a CapacityChange event.
  void on_health_changes(const std::vector<cluster::HealthChange>& changes);
  /// Recover one job that lost >= 1 worker: elastic shrink onto the
  /// survivors when possible, checkpoint-restart (with backoff) otherwise.
  void recover_job(JobId job, double now);
  /// Backoff expiry: a Recovering job rejoins the queue.
  void on_retry_event(JobId job);
  /// Stop fault injection once the whole trace has completed.
  void maybe_halt_faults();
  void notify(EventKind kind, JobId job);
  void apply(cluster::Assignment next);
  void validate(const cluster::Assignment& next) const;

  void accrue(JobId job, double now);
  // Job transitions. Each reads the job's new placement from current_ and
  // its old one from its JobView, which matches current_ for every Running
  // job between transitions (audit_state checks it).
  void start_job(JobId job, double now);
  void stop_job(JobId job, double now);
  /// Resize a running job in place (a scheduler's redeployment or an elastic
  /// shrink-on-failure): charge the mechanism's cost and emit the
  /// elastic_paused bracket. Returns the cost.
  double reconfigure_job(JobId job, double now);
  /// The job leaves the system. `abort_detail` is null for a converged job;
  /// otherwise it marks an abnormal ending and becomes the job_completed
  /// detail ("" for a kill, "retries_exhausted" when recovery gave up).
  void finish_job(JobId job, double now, const char* abort_detail);
  void schedule_epoch_event(JobId job);
  /// Cancel a pending engine event, if any, and clear its id.
  void cancel(sim::EventId& event);
  double actual_tput(JobId job) const;
  /// GPUs actually running a worker (down-but-idle GPUs are neither busy
  /// nor idle); equals total - idle with no faults in play.
  int busy_gpus() const;
  void update_busy();
  /// Metrics emission helpers; no-ops when no registry is attached.
  void sample_cluster_metrics();
  void record_batch_point(JobId job);

  /// Whether `job` is one of the trace's ids (a negative id wraps out of range).
  bool known(JobId job) const { return static_cast<std::size_t>(job) < runtimes_.size(); }
  JobRuntime& runtime(JobId job);
  const JobRuntime& runtime(JobId job) const;
  /// Refresh the persistent snapshot (clock only — the job lists and indexes
  /// are maintained incrementally at arrival/completion) and hand it out.
  const ClusterState& make_state();
  /// SimulationConfig::audit_incremental: recompute every incremental index
  /// from first principles and throw on divergence.
  void audit_state() const;

  SimulationConfig config_;
  Scheduler& scheduler_;

  sim::SimEngine engine_;
  cluster::Topology topology_;
  cluster::Assignment current_;
  ThroughputOracle oracle_;
  elastic::ScalingCostModel cost_model_;
  telemetry::MetricsCollector metrics_;
  energy::PowerModel power_model_;
  energy::EnergyMeter energy_;
  /// Null unless SimulationConfig::fault.enabled().
  std::unique_ptr<cluster::FaultInjector> injector_;

  /// Indexed by JobId; sized once from the trace and never resized.
  std::vector<JobRuntime> runtimes_;
  /// Persistent scheduler snapshot (DESIGN.md §12): jobs are admitted at
  /// arrival and retired at completion. JobView pointers into runtimes_
  /// are stable.
  ClusterState state_;
  std::size_t completed_count_ = 0;
  /// Fired engine events that exist only for the trace (elastic_resumed).
  std::uint64_t trace_only_events_ = 0;
  std::uint64_t deployments_ = 0;
  bool in_notify_ = false;

  /// Stamps the live engine seq onto every record; all emitters (this driver
  /// and the scheduler) write through `sink_`, which points at the stamper
  /// when tracing is on and stays null otherwise.
  std::optional<trace::SeqStampedSink> trace_stamper_;
  trace::TraceSink* sink_ = nullptr;

  /// Null unless a registry is attached via SimulationConfig::metrics; every
  /// emission below checks it, so disabled metrics cost one branch.
  telemetry::MetricsRegistry* registry_ = nullptr;
  /// Null unless a profiler is attached via SimulationConfig::profiler
  /// (DESIGN.md §14); every span site checks it, so profiling off costs one
  /// branch.
  prof::Profiler* profiler_ = nullptr;
  telemetry::TimelineSampler::SeriesId queue_series_ = 0;
  telemetry::TimelineSampler::SeriesId busy_series_ = 0;
  telemetry::TimelineSampler::SeriesId frag_idle_series_ = 0;
  telemetry::TimelineSampler::SeriesId frag_scatter_series_ = 0;
};

}  // namespace ones::sched
