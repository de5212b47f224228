#include "sched/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cluster/fragmentation.hpp"
#include "common/expect.hpp"
#include "common/log.hpp"
#include "model/throughput.hpp"

namespace ones::sched {

namespace {

/// Bucket bounds (seconds) for the per-decision scheduler host-time
/// histogram. Host scope: wall-clock, surfaced on stderr only, never in a
/// file export — the ScopedTimer convention.
const std::vector<double> kDecisionHostBounds = {1e-6, 1e-5, 1e-4, 1e-3,
                                                 1e-2, 1e-1, 1.0};

/// Sim-time seconds from failure to the recovered job producing again.
const std::vector<double> kRecoveryLatencyBounds = {1.0,   10.0,  30.0,  60.0,
                                                    120.0, 300.0, 600.0, 1800.0};
/// Cumulative checkpoint-restarts a job has suffered when it restarts again.
const std::vector<double> kRetryDepthBounds = {1.0, 2.0, 3.0, 4.0, 6.0, 8.0};

bool id_less(const JobView* j, JobId want) { return j->spec.id < want; }

}  // namespace

const char* status_name(JobStatus status) {
  switch (status) {
    case JobStatus::Waiting: return "waiting";
    case JobStatus::Running: return "running";
    case JobStatus::Completed: return "completed";
    case JobStatus::Recovering: return "recovering";
  }
  return "?";
}

const char* event_name(EventKind kind) {
  switch (kind) {
    case EventKind::JobArrival: return "arrival";
    case EventKind::EpochComplete: return "epoch";
    case EventKind::JobComplete: return "complete";
    case EventKind::Timer: return "timer";
    case EventKind::CapacityChange: return "capacity";
  }
  return "?";
}

const JobView* ClusterState::job(JobId id) const {
  const auto it = std::lower_bound(by_id_.begin(), by_id_.end(), id, id_less);
  return it != by_id_.end() && (*it)->spec.id == id ? *it : nullptr;
}

// Completed jobs match neither status filter, so scanning the active list
// instead of jobs() skips only the (ever-growing) completed tail.

std::vector<const JobView*> ClusterState::waiting_jobs() const {
  std::vector<const JobView*> out;
  for (const JobView* j : active_) {
    if (j->status == JobStatus::Waiting) out.push_back(j);
  }
  return out;
}

std::vector<const JobView*> ClusterState::running_jobs() const {
  std::vector<const JobView*> out;
  for (const JobView* j : active_) {
    if (j->status == JobStatus::Running) out.push_back(j);
  }
  return out;
}

void ClusterState::admit(const JobView& job) {
  const auto at = std::lower_bound(by_id_.begin(), by_id_.end(), job.spec.id, id_less);
  ONES_EXPECT_MSG(at == by_id_.end() || (*at)->spec.id != job.spec.id,
                  "job admitted twice");
  by_id_.insert(at, &job);
  jobs_.push_back(&job);
  active_.push_back(&job);
}

void ClusterState::retire(const JobView& job) {
  const auto it = std::find(active_.begin(), active_.end(), &job);
  ONES_EXPECT_MSG(it != active_.end(), "retired job missing from the active list");
  active_.erase(it);
}

void ClusterState::audit_indexes() const {
  std::vector<const JobView*> active;
  for (const JobView* j : jobs_) {
    if (j->status != JobStatus::Completed) active.push_back(j);
  }
  ONES_EXPECT_MSG(active == active_, "active-job list diverged from job statuses");
  ONES_EXPECT_MSG(by_id_.size() == jobs_.size(), "id index out of sync with jobs");
  for (std::size_t i = 1; i < by_id_.size(); ++i) {
    ONES_EXPECT_MSG(by_id_[i - 1]->spec.id < by_id_[i]->spec.id,
                    "id index not strictly sorted");
  }
}

ClusterSimulation::ClusterSimulation(const SimulationConfig& config,
                                     std::vector<workload::JobSpec> trace,
                                     Scheduler& scheduler)
    : config_(config),
      trace_(std::move(trace)),
      scheduler_(scheduler),
      topology_(config.topology),
      current_(topology_.total_gpus()),
      oracle_(topology_, config.oracle),
      cost_model_(config.costs),
      power_model_(config.power),
      energy_(power_model_, topology_,
              [this](JobId job) { return runtime(job).view.profile; }) {
  ONES_EXPECT(!trace_.empty());
  // Schedule every arrival up front.
  for (const auto& spec : trace_) {
    ONES_EXPECT_MSG(!runtimes_.count(spec.id), "duplicate job id in trace");
    runtimes_.emplace(spec.id, JobRuntime{});
    engine_.schedule_at(spec.arrival_time_s, [this, id = spec.id] { on_arrival(id); });
  }
  // The runtimes get fully initialized on arrival; reserve specs now.
  for (const auto& spec : trace_) {
    auto& rt = runtimes_.at(spec.id);
    rt.view.spec = spec;
    rt.view.profile = &model::profile_by_name(spec.variant.model_name);
    rt.view.init_loss = rt.view.profile->init_loss;
    rt.view.train_loss = rt.view.profile->init_loss;
  }
  if (scheduler_.period_s() > 0.0) {
    engine_.schedule_after(scheduler_.period_s(), [this] { on_timer(); });
  }
  if (config_.fault.enabled()) {
    injector_ = std::make_unique<cluster::FaultInjector>(config_.fault, topology_);
    injector_->start(engine_, [this](const std::vector<cluster::HealthChange>& changes) {
      on_health_changes(changes);
    });
  } else {
    config_.fault.validate();  // reject nonsense knobs even when disabled
  }
  // The snapshot handed to the scheduler is persistent: pointers and indexes
  // are maintained at arrival/completion, so per-event refresh is O(1).
  state_.topology = &topology_;
  state_.current = &current_;
  state_.oracle = &oracle_;
  state_.power = &power_model_;
  state_.true_remaining_samples = [this](JobId job, int batch) {
    const auto& rt = runtime(job);
    ONES_EXPECT(rt.dynamics != nullptr);
    return rt.dynamics->oracle_remaining_samples(batch);
  };
  if (config.trace_sink != nullptr) {
    trace_stamper_.emplace(*config.trace_sink);
    sink_ = &*trace_stamper_;
    scheduler_.set_trace_sink(sink_);
    engine_.set_fire_hook(
        [this](double /*now*/, std::uint64_t seq) { trace_stamper_->set_seq(seq); });
  }
  if (config.metrics != nullptr) {
    registry_ = config.metrics;
    scheduler_.set_metrics(registry_);
    queue_series_ = registry_->timeline().series("queue_depth");
    busy_series_ = registry_->timeline().series("busy_gpus");
    frag_idle_series_ = registry_->timeline().series("frag_idle_gpus");
    frag_scatter_series_ = registry_->timeline().series("frag_scatter_index");
    energy_.set_metrics(registry_);
  }
  if (config.profiler != nullptr) {
    profiler_ = config.profiler;
    engine_.set_profiler(profiler_);
    scheduler_.set_profiler(profiler_);
  }
}

ClusterSimulation::~ClusterSimulation() {
  // The stamper dies with this object; never leave the scheduler pointing at it.
  if (sink_ != nullptr) scheduler_.set_trace_sink(nullptr);
  if (registry_ != nullptr) scheduler_.set_metrics(nullptr);
  if (profiler_ != nullptr) scheduler_.set_profiler(nullptr);
}

ClusterSimulation::JobRuntime& ClusterSimulation::runtime(JobId job) {
  auto it = runtimes_.find(job);
  ONES_EXPECT_MSG(it != runtimes_.end(), "unknown job id");
  return it->second;
}

const ClusterSimulation::JobRuntime& ClusterSimulation::runtime(JobId job) const {
  auto it = runtimes_.find(job);
  ONES_EXPECT_MSG(it != runtimes_.end(), "unknown job id");
  return it->second;
}

const JobView& ClusterSimulation::job_view(JobId job) const { return runtime(job).view; }

void ClusterSimulation::cancel(sim::EventId& event) {
  if (event == 0) return;
  engine_.cancel(event);
  event = 0;
}

telemetry::Summary ClusterSimulation::summary(const std::string& scheduler) const {
  auto s = telemetry::summarize(scheduler, metrics_, topology_.total_gpus());
  s.cluster_joules = energy_.cluster_joules();
  s.overhead_joules = energy_.overhead_joules();
  return s;
}

const ClusterState& ClusterSimulation::make_state() {
  state_.now = engine_.now();
  return state_;
}

void ClusterSimulation::audit_state() const {
  current_.audit_indexes();
  state_.audit_indexes();
  if (injector_ != nullptr) {
    for (GpuId g = 0; g < topology_.total_gpus(); ++g) {
      ONES_EXPECT_MSG(current_.health(g) == injector_->health(g),
                      "live health map diverged from the fault injector");
    }
    for (const GpuId g : current_.unhealthy_gpus()) {
      ONES_EXPECT_MSG(!current_.slot(g).occupied(),
                      "down GPU still occupied after recovery (I9)");
    }
  }
  ONES_EXPECT_MSG(state_.jobs().size() == arrived_order_.size(),
                  "snapshot job list out of sync with arrivals");
  for (std::size_t i = 0; i < arrived_order_.size(); ++i) {
    const JobView& v = runtimes_.at(arrived_order_[i]).view;
    ONES_EXPECT_MSG(state_.jobs()[i] == &v, "snapshot job list out of arrival order");
    // reconfigure_job and stop_job read a job's old placement from its view.
    const int gpus = current_.gpu_count(v.spec.id);
    if (v.status == JobStatus::Running) {
      ONES_EXPECT_MSG(v.gpus == gpus && v.global_batch == current_.global_batch(v.spec.id),
                      "running job's view diverged from the live assignment");
    } else {
      ONES_EXPECT_MSG(gpus == 0, "non-running job holds GPUs");
    }
  }
}

void ClusterSimulation::run() {
  if (sink_ != nullptr) {
    sink_->on_record({.kind = trace::RecordKind::RunBegin,
                      .t = engine_.now(),
                      .gpus = topology_.total_gpus(),
                      .global_batch = static_cast<int>(trace_.size()),
                      .detail = scheduler_.name()});
  }
  engine_.run_until(config_.max_sim_time_s);
  // run_until pads now() to the horizon once the queue drains; billing the
  // all-idle cluster across that padding would swamp the run's real draw.
  // A finished trace ends at the last completion (straggler timer events may
  // have metered slightly past it); a truncated one really does hold its
  // residual jobs until the horizon.
  const double energy_end =
      all_completed() ? std::max(metrics_.makespan(), energy_.metered_until())
                      : engine_.now();
  energy_.finalize(energy_end);
  if (registry_ != nullptr) {
    sample_cluster_metrics();
    registry_->timeline().advance(engine_.now());
    registry_->gauge("sim_events_fired").set(static_cast<double>(events_fired()));
  }
  if (!all_completed()) {
    ONES_LOG(Warn) << "simulation ended with " << (trace_.size() - completed_count_)
                   << " unfinished job(s) — scheduler '" << scheduler_.name()
                   << "' left work stranded or hit the time limit";
  }
  if (sink_ != nullptr) {
    // "truncated" tells the replayer this run was cut off (time box / max
    // sim time) rather than drained, so end-of-stream invariants that only
    // hold for finished runs (I7 closed pause brackets) are not enforced.
    sink_->on_record({.kind = trace::RecordKind::RunEnd,
                      .t = engine_.now(),
                      .count = completed_count_,
                      .detail = all_completed() ? "" : "truncated"});
  }
}

double ClusterSimulation::actual_tput(JobId job) const {
  const auto& rt = runtime(job);
  const auto gpus = current_.gpus_of(job);
  ONES_EXPECT(!gpus.empty());
  std::vector<int> batches;
  batches.reserve(gpus.size());
  for (GpuId g : gpus) batches.push_back(current_.slot(g).local_batch);
  const cluster::LinkProfile link = topology_.link_profile(gpus);
  return model::throughput_sps(*rt.view.profile, batches, link);
}

int ClusterSimulation::busy_gpus() const {
  int busy = topology_.total_gpus() - current_.idle_count();
  for (const GpuId g : current_.unhealthy_gpus()) {
    if (!current_.slot(g).occupied()) --busy;
  }
  return busy;
}

void ClusterSimulation::update_busy() {
  metrics_.on_busy_gpus(busy_gpus(), engine_.now());
  energy_.on_assignment(current_, engine_.now());
  sample_cluster_metrics();
}

void ClusterSimulation::sample_cluster_metrics() {
  if (registry_ == nullptr) return;
  const double now = engine_.now();
  double waiting = 0.0;
  for (const JobView* v : state_.active_jobs()) {  // Completed jobs are never Waiting
    if (v->status == JobStatus::Waiting) waiting += 1.0;
  }
  const double busy = static_cast<double>(busy_gpus());
  registry_->gauge("sim_queue_depth").set(waiting);
  registry_->gauge("sim_busy_gpus").set(busy);
  registry_->gauge("sim_pending_events").set(static_cast<double>(engine_.pending()));
  registry_->timeline().record(queue_series_, now, waiting);
  registry_->timeline().record(busy_series_, now, busy);
  const cluster::FragmentationStats frag =
      cluster::fragmentation_stats(current_, topology_);
  registry_->gauge("cluster_frag_idle_gpus").set(static_cast<double>(frag.idle_gpus));
  registry_->gauge("cluster_frag_largest_block")
      .set(static_cast<double>(frag.largest_colocated_block));
  registry_->gauge("cluster_frag_nodes_with_idle")
      .set(static_cast<double>(frag.nodes_with_idle));
  registry_->gauge("cluster_frag_scatter_index").set(frag.scatter_index);
  registry_->timeline().record(frag_idle_series_, now,
                               static_cast<double>(frag.idle_gpus));
  registry_->timeline().record(frag_scatter_series_, now, frag.scatter_index);
}

void ClusterSimulation::record_batch_point(JobId job) {
  if (registry_ == nullptr) return;
  auto it = batch_series_.find(job);
  if (it == batch_series_.end()) {
    const auto id =
        registry_->timeline().series("job" + std::to_string(job) + ".batch");
    it = batch_series_.emplace(job, id).first;
  }
  registry_->timeline().record(it->second, engine_.now(),
                               static_cast<double>(runtime(job).view.global_batch));
}

void ClusterSimulation::accrue(JobId job, double now) {
  auto& rt = runtime(job);
  if (rt.view.status != JobStatus::Running) return;
  const double from = std::max(rt.last_accrue, rt.produce_start);
  if (now <= from) return;
  rt.last_accrue = now;
  double samples = rt.tput_sps * (now - from);
  if (samples <= 0.0) return;
  const double dataset = rt.view.dataset_size();
  samples = std::min(samples, dataset - rt.epoch_samples_done);
  rt.epoch_samples_done += samples;
  if (!rt.dynamics->converged()) {
    rt.last_result = rt.dynamics->advance(rt.view.global_batch, samples);
  }
  rt.view.samples_processed = rt.dynamics->samples_processed();
  rt.view.exec_time_s += now - from;  // time on GPUs while producing
  if (registry_ != nullptr) {
    // Productive GPU-seconds; fault_lost_gpu_seconds_total is its complement.
    registry_->counter("sim_goodput_gpu_seconds_total")
        .add((now - from) * static_cast<double>(rt.view.gpus));
  }
}

void ClusterSimulation::on_arrival(JobId job) {
  auto& rt = runtime(job);
  rt.view.status = JobStatus::Waiting;
  rt.dynamics = std::make_unique<model::TrainDynamics>(
      *rt.view.profile, rt.view.spec.variant.dataset_size, config_.convergence,
      rt.view.spec.dynamics_seed);
  arrived_order_.push_back(job);
  state_.admit(rt.view);
  metrics_.on_submit(job, engine_.now());
  if (registry_ != nullptr) {
    registry_->counter("sim_jobs_submitted_total").add();
    sample_cluster_metrics();
  }
  if (sink_ != nullptr) {
    sink_->on_record({.kind = trace::RecordKind::JobSubmitted,
                      .t = engine_.now(),
                      .job = job,
                      .detail = rt.view.spec.variant.model_name});
  }
  if (rt.view.spec.kill_after_s > 0.0) {
    // Abnormal ending (user abort / crash / early stop — §2.1).
    rt.kill_event = engine_.schedule_after(rt.view.spec.kill_after_s,
                                           [this, job] { on_kill_event(job); });
  }
  notify(EventKind::JobArrival, job);
}

void ClusterSimulation::on_kill_event(JobId job) {
  runtime(job).kill_event = 0;
  finish_job(job, engine_.now(), "");
  notify(EventKind::JobComplete, job);
}

void ClusterSimulation::on_timer() {
  notify(EventKind::Timer, kInvalidJob);
  if (completed_count_ < trace_.size()) {
    engine_.schedule_after(scheduler_.period_s(), [this] { on_timer(); });
  }
}

void ClusterSimulation::maybe_halt_faults() {
  if (injector_ != nullptr && completed_count_ == trace_.size()) injector_->halt();
}

void ClusterSimulation::on_health_changes(
    const std::vector<cluster::HealthChange>& changes) {
  const double now = engine_.now();
  // Partition by new health (for the trace records) and find the victims —
  // jobs occupying a GPU that just went down — before mutating anything.
  std::vector<GpuId> failed, reclaimed, healed;
  std::vector<JobId> victims;
  for (const auto& ch : changes) {
    switch (ch.health) {
      case cluster::SlotHealth::Failed: failed.push_back(ch.gpu); break;
      case cluster::SlotHealth::Reclaimed: reclaimed.push_back(ch.gpu); break;
      case cluster::SlotHealth::Healthy: healed.push_back(ch.gpu); break;
    }
    if (ch.health != cluster::SlotHealth::Healthy) {
      const auto& s = current_.slot(ch.gpu);
      if (s.occupied()) victims.push_back(s.job);
    }
    current_.set_health(ch.gpu, ch.health);
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());

  if (registry_ != nullptr) {
    if (!failed.empty() || !reclaimed.empty()) {
      registry_->counter("fault_gpu_down_total")
          .add(static_cast<double>(failed.size() + reclaimed.size()));
    }
    if (!healed.empty()) {
      registry_->counter("fault_gpu_up_total").add(static_cast<double>(healed.size()));
    }
    registry_->gauge("cluster_healthy_gpus")
        .set(static_cast<double>(current_.healthy_count()));
  }
  if (sink_ != nullptr) {
    auto emit = [&](trace::RecordKind kind, const char* health,
                    const std::vector<GpuId>& gpus) {
      if (gpus.empty()) return;
      sink_->on_record({.kind = kind,
                        .t = now,
                        .gpus = static_cast<int>(gpus.size()),
                        .detail = std::string(health) + " " +
                                  trace::format_gpu_list(gpus)});
    };
    emit(trace::RecordKind::GpuFailed, "failed", failed);
    emit(trace::RecordKind::GpuFailed, "reclaimed", reclaimed);
    emit(trace::RecordKind::GpuRepaired, "healthy", healed);
  }

  std::vector<JobId> aborted;
  for (const JobId j : victims) {
    recover_job(j, now);
    if (runtime(j).view.status == JobStatus::Completed) aborted.push_back(j);
  }
  update_busy();
  // The cluster is consistent again: tell the scheduler — in a fresh
  // zero-delay engine event, not inline. A shrink above already claimed the
  // survivors' GPUs in this event; if the scheduler's reaction preempted and
  // re-placed them in the same event, the trace transaction would interleave
  // claim/release/claim on one GPU, which the replayer's release-then-claim
  // settlement (deliberately order-free within an event) cannot represent.
  // Aborts first (they carry scheduler bookkeeping: predictor skip-lists,
  // batch-limit purges), then one capacity-change nudge for the health map.
  engine_.schedule_after(0.0, [this, aborted = std::move(aborted)] {
    for (const JobId j : aborted) notify(EventKind::JobComplete, j);
    notify(EventKind::CapacityChange, kInvalidJob);
  });
}

void ClusterSimulation::recover_job(JobId job, double now) {
  auto& rt = runtime(job);
  ONES_EXPECT(rt.view.status == JobStatus::Running);
  accrue(job, now);  // progress up to the instant of the failure
  const auto gpus = current_.gpus_of(job);
  std::vector<GpuId> survivors, lost;
  for (const GpuId g : gpus) {
    (current_.slot(g).healthy() ? survivors : lost).push_back(g);
  }
  ONES_EXPECT_MSG(!lost.empty(), "recover_job on a job with no lost workers");
  rt.failed_at = now;

  if (scheduler_.mechanism() == ScalingMechanism::Elastic && !survivors.empty()) {
    // Elastic shrink-on-failure: drop the dead workers and keep training on
    // the survivors — capacity churn is a resize, not a restart.
    for (const GpuId g : lost) current_.clear(g);
    const double cost = reconfigure_job(job, now);
    if (registry_ != nullptr) {
      registry_->counter("fault_job_shrinks_total").add();
      registry_
          ->histogram("fault_recovery_latency_seconds", kRecoveryLatencyBounds)
          .observe(cost);
    }
    if (sink_ != nullptr) {
      sink_->on_record({.kind = trace::RecordKind::JobRecovered,
                        .t = now,
                        .job = job,
                        .gpus = rt.view.gpus,
                        .global_batch = rt.view.global_batch,
                        .count = static_cast<std::uint64_t>(rt.restarts),
                        .detail = "shrink"});
    }
    return;
  }

  // Checkpoint-restart: no survivors (or a checkpoint-mechanism scheduler).
  // Work since the last checkpoint — checkpoints land every
  // checkpoint_interval_s of productive time — is redone as extra blocked
  // time when the job next starts; the dynamics are never rolled back.
  const double interval = config_.fault.checkpoint_interval_s;
  const double done = rt.view.exec_time_s;
  const double lost_s = done - std::floor(done / interval) * interval;
  rt.redo_s = lost_s;
  rt.lost_gpu_s += lost_s * static_cast<double>(gpus.size());
  stop_job(job, now);      // JobPreempted bracket; survivors release cleanly
  current_.evict(job);     // dead GPUs stay out of the idle index
  rt.pending_recovery = true;
  ++rt.restarts;
  if (registry_ != nullptr) {
    registry_->counter("fault_job_restarts_total").add();
    registry_->counter("fault_lost_gpu_seconds_total")
        .add(lost_s * static_cast<double>(gpus.size()));
    registry_->histogram("fault_retry_depth", kRetryDepthBounds)
        .observe(static_cast<double>(rt.restarts));
  }
  if (rt.restarts > config_.fault.max_restarts) {
    finish_job(job, now, "retries_exhausted");
    return;
  }
  rt.view.status = JobStatus::Recovering;
  const double backoff =
      config_.fault.retry_backoff_s * std::ldexp(1.0, rt.restarts - 1);
  rt.retry_event = engine_.schedule_after(backoff, [this, job] { on_retry_event(job); });
}

void ClusterSimulation::on_retry_event(JobId job) {
  auto& rt = runtime(job);
  rt.retry_event = 0;
  if (rt.view.status != JobStatus::Recovering) return;  // placed early / killed
  rt.view.status = JobStatus::Waiting;
  if (registry_ != nullptr) sample_cluster_metrics();
  notify(EventKind::CapacityChange, job);
}

void ClusterSimulation::on_epoch_event(JobId job) {
  auto& rt = runtime(job);
  ONES_EXPECT(rt.view.status == JobStatus::Running);
  rt.epoch_event = 0;
  accrue(job, engine_.now());
  // Force the epoch boundary (accrue clamps to it; fp residue is < 1 sample).
  rt.epoch_samples_done = 0.0;
  rt.view.epochs_completed += 1;
  rt.view.train_loss = rt.last_result.train_loss;
  rt.view.val_accuracy = rt.last_result.val_accuracy;
  if (config_.record_epoch_logs) {
    rt.view.epoch_log.push_back({engine_.now(), rt.view.samples_processed,
                                 rt.view.train_loss, rt.view.val_accuracy,
                                 rt.view.global_batch});
  }

  if (rt.dynamics->converged()) {
    finish_job(job, engine_.now(), nullptr);
    notify(EventKind::JobComplete, job);
    return;
  }
  notify(EventKind::EpochComplete, job);
  // If the scheduler kept the allocation, continue this job's next epoch.
  if (rt.view.status == JobStatus::Running && rt.epoch_event == 0) {
    schedule_epoch_event(job);
  }
}

void ClusterSimulation::notify(EventKind kind, JobId job) {
  ONES_EXPECT_MSG(!in_notify_, "re-entrant scheduler notification");
  if (sink_ != nullptr) {
    sink_->on_record({.kind = trace::RecordKind::SimEvent,
                      .t = engine_.now(),
                      .job = job,
                      .detail = event_name(kind)});
  }
  in_notify_ = true;
  // Per-event-kind decision span ("decision/JobArrival", ... — DESIGN.md
  // §14); everything the policy does (evolution steps, predictor fits)
  // nests underneath.
  const prof::Scope decision_span(profiler_, "decision");
  const prof::Scope kind_span(profiler_, event_name(kind));
  const ClusterState& state = make_state();
  // Wall-clock is allowed here ONLY because the decision histogram is
  // Host-scope: stderr diagnostics, never exported to a file or fed back
  // into any simulated quantity.
  // ones-lint-begin: wall-clock-ok(Host-scope decision-time histogram; stderr diagnostics only, never a simulated quantity)
  std::chrono::steady_clock::time_point host_begin;
  if (registry_ != nullptr) host_begin = std::chrono::steady_clock::now();
  std::optional<cluster::Assignment> next = scheduler_.on_event(state, {kind, job});
  if (registry_ != nullptr) {
    const std::chrono::duration<double> host_s =
        std::chrono::steady_clock::now() - host_begin;
    // ones-lint-end: wall-clock-ok
    registry_
        ->histogram("sched_decision_host_seconds", kDecisionHostBounds,
                    telemetry::MetricScope::Host)
        .observe(host_s.count());
    registry_->counter("sched_events_total").add();
    if (next.has_value()) registry_->counter("sched_decisions_total").add();
  }
  in_notify_ = false;
  if (next.has_value()) {
    apply(std::move(*next));
  }
  if (config_.audit_incremental) audit_state();
}

void ClusterSimulation::validate(const cluster::Assignment& next) const {
  ONES_EXPECT_MSG(next.num_gpus() == topology_.total_gpus(),
                  "assignment sized for a different cluster");
  next.check_invariants();
  // I9: the scheduler must carry the live health map and never claim a down
  // GPU. Every scheduler starts from current_ (copy or empty_like), so a
  // mismatch means it built an assignment from scratch.
  ONES_EXPECT_MSG(next.unhealthy_gpus() == current_.unhealthy_gpus(),
                  "assignment disagrees with the live health map");
  for (const GpuId g : next.unhealthy_gpus()) {
    ONES_EXPECT_MSG(next.health(g) == current_.health(g),
                    "assignment disagrees with a GPU's health state");
    ONES_EXPECT_MSG(!next.slot(g).occupied(),
                    "assignment places a worker on a down GPU (I9)");
  }
  for (JobId j : next.running_jobs()) {
    auto it = runtimes_.find(j);
    ONES_EXPECT_MSG(it != runtimes_.end(), "assignment references unknown job");
    const auto& rt = it->second;
    ONES_EXPECT_MSG(rt.view.status != JobStatus::Completed,
                    "assignment references a completed job");
    ONES_EXPECT_MSG(rt.dynamics != nullptr, "assignment references a job not yet arrived");
    for (GpuId g : next.gpus_of(j)) {
      ONES_EXPECT_MSG(next.slot(g).local_batch <= rt.view.profile->max_local_batch,
                      "local batch exceeds the GPU memory limit");
    }
  }
}

void ClusterSimulation::apply(cluster::Assignment next) {
  const prof::Scope span(profiler_, "apply");
  validate(next);
  const double now = engine_.now();
  ++deployments_;
  if (registry_ != nullptr) registry_->counter("sim_deployments_total").add();

  // Account all in-flight progress before changing anything.
  for (JobId j : current_.running_jobs()) accrue(j, now);

  const cluster::AssignmentDelta delta = cluster::diff(current_, next);
  for (JobId j : delta.stopped) stop_job(j, now);
  // Install the new allocation before computing placement-dependent costs.
  current_ = std::move(next);
  for (JobId j : delta.started) start_job(j, now);
  for (JobId j : delta.reconfigured) reconfigure_job(j, now);
  update_busy();
}

double ClusterSimulation::reconfigure_job(JobId job, double now) {
  auto& rt = runtime(job);
  // The view still holds the old placement; current_ already holds the new.
  const int old_workers = rt.view.gpus;
  const int old_batch = rt.view.global_batch;
  const auto gpus = current_.gpus_of(job);
  rt.view.gpus = static_cast<int>(gpus.size());
  rt.view.global_batch = current_.global_batch(job);
  const bool elastic = scheduler_.mechanism() == ScalingMechanism::Elastic;
  const double cost =
      elastic ? cost_model_.elastic_cost_s(*rt.view.profile, old_workers, rt.view.gpus,
                                           topology_.link_profile(gpus))
              : cost_model_.checkpoint_cost_s(*rt.view.profile, rt.view.gpus);
  if (rt.view.global_batch != old_batch) {
    rt.dynamics->on_batch_resize(old_batch, rt.view.global_batch);
  }
  rt.last_batch = rt.view.global_batch;
  rt.tput_sps = actual_tput(job);
  rt.view.throughput_sps = rt.tput_sps;
  rt.produce_start = now + cost;
  rt.last_accrue = rt.produce_start;
  cancel(rt.epoch_event);
  if (registry_ != nullptr) {
    registry_->counter("sim_reconfigurations_total").add();
    registry_->counter("sim_reconfig_overhead_seconds_total").add(cost);
    record_batch_point(job);
  }
  if (sink_ != nullptr) {
    sink_->on_record({.kind = trace::RecordKind::ElasticPaused,
                      .t = now,
                      .job = job,
                      .cost_s = cost,
                      .detail = elastic ? "elastic" : "checkpoint"});
    if (rt.view.global_batch != old_batch) {
      sink_->on_record({.kind = trace::RecordKind::BatchResized,
                        .t = now,
                        .job = job,
                        .global_batch = rt.view.global_batch,
                        .old_batch = old_batch,
                        .detail = ""});
    }
    sink_->on_record({.kind = trace::RecordKind::JobReconfigured,
                      .t = now,
                      .job = job,
                      .gpus = rt.view.gpus,
                      .global_batch = rt.view.global_batch,
                      .old_gpus = old_workers,
                      .old_batch = old_batch,
                      .cost_s = cost,
                      .detail = trace::format_gpu_list(gpus)});
    // The resume record must carry the resume timestamp, so it is emitted
    // by a side-effect-free engine event at produce_start (cancelled if the
    // job is stopped first). A re-reconfiguration during the pause replaces
    // the pending resume: one bracket, closed once. The event exists only
    // for the trace, so events_fired() leaves it out.
    cancel(rt.resume_event);
    rt.resume_event = engine_.schedule_at(rt.produce_start, [this, job] {
      runtime(job).resume_event = 0;
      ++trace_only_events_;
      sink_->on_record({.kind = trace::RecordKind::ElasticResumed,
                        .t = engine_.now(),
                        .job = job,
                        .detail = ""});
    });
  }
  schedule_epoch_event(job);
  return cost;
}

void ClusterSimulation::start_job(JobId job, double now) {
  auto& rt = runtime(job);
  // Placing a Recovering job is allowed: its backoff ends early.
  ONES_EXPECT(rt.view.status == JobStatus::Waiting ||
              rt.view.status == JobStatus::Recovering);
  cancel(rt.retry_event);
  rt.view.status = JobStatus::Running;
  metrics_.on_run_start(job, now);

  const bool first_run = !rt.ever_ran;
  const int prev_batch = rt.last_batch;
  const int new_batch = current_.global_batch(job);
  double cost;
  if (!rt.ever_ran) {
    cost = cost_model_.cold_start_cost_s(*rt.view.profile);
    rt.ever_ran = true;
    rt.last_batch = new_batch;
  } else {
    // Resuming a preempted job: reload state. The elastic mechanism keeps the
    // runtime warm (agents reconnect + reload weights); checkpoint restarts
    // the whole stack.
    if (scheduler_.mechanism() == ScalingMechanism::Elastic) {
      const auto& cc = cost_model_.config();
      cost = cc.reconnect_base_s + cc.model_load_s +
             rt.view.profile->params_bytes / cc.hdfs_bw_Bps;
    } else {
      cost = cost_model_.checkpoint_cost_s(*rt.view.profile, current_.gpu_count(job));
    }
    if (new_batch != rt.last_batch) {
      rt.dynamics->on_batch_resize(rt.last_batch, new_batch);
      rt.last_batch = new_batch;
    }
  }
  // A restart after a failure also redoes the work since the last checkpoint:
  // extra blocked time, the dynamics were never rolled back (DESIGN.md §13).
  const double redo = rt.redo_s;
  cost += redo;
  rt.redo_s = 0.0;

  rt.view.gpus = current_.gpu_count(job);
  rt.view.global_batch = new_batch;
  rt.tput_sps = actual_tput(job);
  rt.view.throughput_sps = rt.tput_sps;
  rt.produce_start = now + cost;
  rt.last_accrue = rt.produce_start;
  if (registry_ != nullptr) {
    registry_->counter("sim_restart_overhead_seconds_total").add(cost);
    record_batch_point(job);
  }
  if (sink_ != nullptr) {
    if (first_run) {
      sink_->on_record({.kind = trace::RecordKind::JobAdmitted,
                        .t = now,
                        .job = job,
                        .detail = ""});
    } else if (new_batch != prev_batch) {
      // Resuming a preempted job in a new batch configuration.
      sink_->on_record({.kind = trace::RecordKind::BatchResized,
                        .t = now,
                        .job = job,
                        .global_batch = new_batch,
                        .old_batch = prev_batch,
                        .detail = ""});
    }
    sink_->on_record({.kind = trace::RecordKind::JobPlaced,
                      .t = now,
                      .job = job,
                      .gpus = rt.view.gpus,
                      .global_batch = new_batch,
                      .cost_s = cost,
                      .detail = trace::format_gpu_list(current_.gpus_of(job))});
  }
  if (rt.pending_recovery) {
    // This placement closes a checkpoint-restart recovery (I10).
    rt.pending_recovery = false;
    if (registry_ != nullptr) {
      registry_
          ->histogram("fault_recovery_latency_seconds", kRecoveryLatencyBounds)
          .observe(now + cost - rt.failed_at);
    }
    if (sink_ != nullptr) {
      sink_->on_record({.kind = trace::RecordKind::JobRecovered,
                        .t = now,
                        .job = job,
                        .gpus = rt.view.gpus,
                        .global_batch = new_batch,
                        .cost_s = redo,
                        .count = static_cast<std::uint64_t>(rt.restarts),
                        .detail = "restart"});
    }
  }
  schedule_epoch_event(job);
}

void ClusterSimulation::stop_job(JobId job, double now) {
  auto& rt = runtime(job);
  ONES_EXPECT(rt.view.status == JobStatus::Running);
  cancel(rt.epoch_event);
  cancel(rt.resume_event);  // preempted mid-pause; bracket closes here
  if (sink_ != nullptr) {
    sink_->on_record({.kind = trace::RecordKind::JobPreempted,
                      .t = now,
                      .job = job,
                      .old_gpus = rt.view.gpus,
                      .old_batch = rt.view.global_batch,
                      .detail = ""});
  }
  rt.view.status = JobStatus::Waiting;
  rt.last_batch = rt.view.global_batch;
  rt.view.gpus = 0;
  rt.view.global_batch = 0;
  rt.tput_sps = 0.0;
  rt.view.throughput_sps = 0.0;
  metrics_.on_run_end(job, now, /*preempted=*/true);
  if (registry_ != nullptr) {
    registry_->counter("sim_preemptions_total").add();
    record_batch_point(job);
  }
}

void ClusterSimulation::finish_job(JobId job, double now, const char* abort_detail) {
  auto& rt = runtime(job);
  ONES_EXPECT(rt.view.status != JobStatus::Completed);
  const bool aborted = abort_detail != nullptr;
  // Only a retry-exhausted recovery reports its lost GPU-seconds (I10).
  const bool gave_up = aborted && *abort_detail != '\0';
  const bool was_running = rt.view.status == JobStatus::Running;
  if (was_running) {
    accrue(job, now);
    metrics_.on_run_end(job, now, /*preempted=*/false);
    current_.evict(job);
  }
  cancel(rt.epoch_event);
  cancel(rt.kill_event);  // converged or gave up before the abnormal ending
  cancel(rt.resume_event);
  cancel(rt.retry_event);  // killed while waiting out a recovery backoff
  rt.view.status = JobStatus::Completed;
  state_.retire(rt.view);
  rt.view.aborted = aborted;
  rt.view.gpus = 0;
  rt.view.global_batch = 0;
  rt.tput_sps = 0.0;
  rt.pending_recovery = false;
  if (aborted) {
    metrics_.on_abort(job, now);
  } else {
    metrics_.on_complete(job, now);
  }
  if (was_running) update_busy();
  ++completed_count_;
  maybe_halt_faults();
  if (registry_ != nullptr) {
    registry_->counter(aborted ? "sim_jobs_aborted_total" : "sim_jobs_completed_total").add();
    if (gave_up) registry_->counter("fault_jobs_aborted_total").add();
    record_batch_point(job);
    if (!was_running) sample_cluster_metrics();
  }
  if (sink_ != nullptr) {
    sink_->on_record({.kind = trace::RecordKind::JobCompleted,
                      .t = now,
                      .job = job,
                      .cost_s = gave_up ? rt.lost_gpu_s : 0.0,
                      .aborted = aborted,
                      .detail = aborted ? abort_detail : ""});
  }
}

void ClusterSimulation::schedule_epoch_event(JobId job) {
  auto& rt = runtime(job);
  ONES_EXPECT(rt.view.status == JobStatus::Running);
  ONES_EXPECT(rt.epoch_event == 0);
  ONES_EXPECT(rt.tput_sps > 0.0);
  const double remaining = rt.view.dataset_size() - rt.epoch_samples_done;
  const double when = std::max(rt.produce_start, engine_.now()) + remaining / rt.tput_sps;
  rt.epoch_event = engine_.schedule_at(when, [this, job] { on_epoch_event(job); });
}

}  // namespace ones::sched
