#include "elastic/protocol.hpp"

#include <algorithm>
#include <sstream>

#include "common/expect.hpp"
#include "model/throughput.hpp"

namespace ones::elastic {

const char* phase_name(WorkerPhase phase) {
  switch (phase) {
    case WorkerPhase::Idle: return "idle";
    case WorkerPhase::Initializing: return "initializing";
    case WorkerPhase::Training: return "training";
    case WorkerPhase::Draining: return "draining";
    case WorkerPhase::Reconnecting: return "reconnecting";
    case WorkerPhase::Receiving: return "receiving";
    case WorkerPhase::Running: return "running";
  }
  return "?";
}

ScalingSession::ScalingSession(sim::SimEngine& engine, const model::TaskProfile& profile,
                               const cluster::Topology& topology, const CostConfig& costs,
                               ScalingRequest request,
                               std::function<void(const ScalingReport&)> on_done)
    : engine_(engine),
      profile_(profile),
      topology_(topology),
      costs_(costs),
      request_(std::move(request)),
      on_done_(std::move(on_done)) {
  ONES_EXPECT(!request_.old_workers.empty());
  ONES_EXPECT(!request_.new_workers.empty());
  ONES_EXPECT(on_done_ != nullptr);
  const auto& old = request_.old_workers;
  for (GpuId g : request_.new_workers) {
    if (std::find(old.begin(), old.end(), g) != old.end()) {
      kept_.push_back(g);
    } else {
      added_.push_back(g);
    }
  }
}

void ScalingSession::log_event(const std::string& what) {
  std::ostringstream os;
  os << "t=" << engine_.now() << "s  " << what;
  report_.timeline.push_back(os.str());
  if (phase_hook_) phase_hook_(engine_.now(), what);
}

void ScalingSession::start() {
  const prof::Scope span(profiler_, "elastic.stage");
  ONES_EXPECT_MSG(phase_ == SessionPhase::Pending, "ScalingSession::start called twice");
  report_.started_at = engine_.now();
  log_event("scheduler sends new configuration to worker managers");

  if (!added_.empty()) {
    // Step 1 (Fig 12): new workers initialize in the background while the
    // previous workers keep training. Init runs in parallel across workers;
    // the session advances when the slowest one is ready.
    phase_ = SessionPhase::Init;
    const double init_s = costs_.framework_init_s +
                          profile_.params_bytes / costs_.hdfs_bw_Bps * 0.25;
    log_event("new workers start background initialization (" +
              std::to_string(added_.size()) + " worker(s))");
    pending_ = engine_.schedule_after(init_s, [this] { on_new_workers_ready(); });
  } else {
    // Pure shrink / re-batch: nothing to initialize.
    phase_ = SessionPhase::Init;
    on_new_workers_ready();
  }
}

void ScalingSession::on_worker_lost(GpuId gpu) {
  if (phase_ == SessionPhase::Done || phase_ == SessionPhase::RolledBack) return;
  const prof::Scope span(profiler_, "elastic.stage");
  auto drop = [gpu](std::vector<GpuId>& v) {
    const auto it = std::find(v.begin(), v.end(), gpu);
    if (it == v.end()) return false;
    v.erase(it);
    return true;
  };
  const bool was_target = drop(request_.new_workers);
  const bool was_old = drop(request_.old_workers);
  drop(kept_);
  drop(added_);
  if (!was_target && !was_old) return;  // not part of this session
  ++report_.workers_lost;
  log_event("worker " + std::to_string(gpu) + " lost during " +
            (phase_ == SessionPhase::Pending
                 ? "pending"
                 : phase_ == SessionPhase::Init
                       ? "init"
                       : phase_ == SessionPhase::Draining
                             ? "drain"
                             : phase_ == SessionPhase::Reconnecting ? "reconnect"
                                                                    : "broadcast"));
  if (metrics_ != nullptr) metrics_->counter("elastic_workers_lost_total").add();
  if (request_.new_workers.empty()) {
    roll_back();
    return;
  }
  switch (phase_) {
    case SessionPhase::Pending:
    case SessionPhase::Init:
    case SessionPhase::Draining:
      // Later stages are costed from the surviving set when they begin;
      // nothing in flight depends on the dead worker.
      break;
    case SessionPhase::Reconnecting:
    case SessionPhase::Receiving:
      // The forming topology included the dead worker: the survivors must
      // re-form it (fresh reconnect, then broadcast).
      if (pending_ != 0) {
        engine_.cancel(pending_);
        pending_ = 0;
      }
      log_event("survivors re-form the topology (" +
                std::to_string(request_.new_workers.size()) + " worker(s))");
      begin_reconnect();
      break;
    case SessionPhase::Done:
    case SessionPhase::RolledBack:
      break;  // unreachable: handled above
  }
}

void ScalingSession::roll_back() {
  if (pending_ != 0) {
    engine_.cancel(pending_);
    pending_ = 0;
  }
  phase_ = SessionPhase::RolledBack;
  report_.rolled_back = true;
  report_.resumed_at = engine_.now();
  // If the previous workers never drained, training was live the whole time.
  report_.blocked_s =
      report_.paused_at > 0.0 ? engine_.now() - report_.paused_at : 0.0;
  report_.total_s = engine_.now() - report_.started_at;
  log_event("no surviving target worker; scaling session rolled back");
  if (metrics_ != nullptr) {
    metrics_->counter("elastic_rollbacks_total").add();
    metrics_->counter("elastic_blocked_seconds_total").add(report_.blocked_s);
    metrics_->gauge("elastic_last_blocked_seconds").set(report_.blocked_s);
  }
  on_done_(report_);
}

void ScalingSession::on_new_workers_ready() {
  const prof::Scope span(profiler_, "elastic.stage");
  pending_ = 0;
  report_.new_workers_ready_at = engine_.now();
  log_event("new workers ready; controller notifies previous workers");
  phase_ = SessionPhase::Draining;

  // Previous workers drain their in-flight training step. We charge the
  // average case: half a step plus the configured pause overhead. A session
  // whose old workers all died mid-drain still pays the drain window (the
  // controller waits out the step deadline before declaring them gone).
  const int old_n = std::max<int>(1, static_cast<int>(request_.old_workers.size()));
  const cluster::LinkProfile old_link =
      request_.old_workers.empty() ? topology_.link_profile(request_.new_workers)
                                   : topology_.link_profile(request_.old_workers);
  const double step = model::step_time_even_s(
      profile_, std::max(request_.old_global_batch, old_n), old_n, old_link);
  pending_ = engine_.schedule_after(0.5 * step + costs_.pause_step_s,
                                    [this] { on_previous_drained(); });
}

void ScalingSession::on_previous_drained() {
  const prof::Scope span(profiler_, "elastic.stage");
  pending_ = 0;
  report_.paused_at = engine_.now();
  log_event("previous workers drained their step and quit the old topology");
  begin_reconnect();
}

void ScalingSession::begin_reconnect() {
  phase_ = SessionPhase::Reconnecting;
  const double reconnect =
      costs_.resize_modules_s + costs_.resize_per_byte_s * profile_.params_bytes +
      costs_.reconnect_base_s +
      costs_.reconnect_per_worker_s * static_cast<double>(request_.new_workers.size());
  pending_ = engine_.schedule_after(reconnect, [this] { on_reconnected(); });
}

void ScalingSession::on_reconnected() {
  const prof::Scope span(profiler_, "elastic.stage");
  pending_ = 0;
  log_event("all workers connected to the new topology; modules resized");
  if (!added_.empty()) {
    phase_ = SessionPhase::Receiving;
    const cluster::LinkProfile link = topology_.link_profile(request_.new_workers);
    const double bcast = profile_.params_bytes / link.bandwidth_Bps;
    log_event("broadcasting parameters from one previous worker");
    pending_ = engine_.schedule_after(bcast, [this] { on_broadcast_done(); });
  } else {
    on_broadcast_done();
  }
}

void ScalingSession::on_broadcast_done() {
  const prof::Scope span(profiler_, "elastic.stage");
  pending_ = 0;
  phase_ = SessionPhase::Done;
  report_.resumed_at = engine_.now();
  report_.blocked_s = report_.resumed_at - report_.paused_at +
                      0.0;  // training was live until paused_at
  report_.total_s = report_.resumed_at - report_.started_at;
  log_event("scaling agents resume the user scripts");
  if (metrics_ != nullptr) {
    metrics_->counter("elastic_scalings_total").add();
    metrics_->counter("elastic_blocked_seconds_total").add(report_.blocked_s);
    metrics_->gauge("elastic_last_blocked_seconds").set(report_.blocked_s);
  }
  on_done_(report_);
}

ScalingReport run_checkpoint_migration(sim::SimEngine& engine,
                                       const model::TaskProfile& profile,
                                       const CostConfig& costs,
                                       const ScalingRequest& request,
                                       telemetry::MetricsRegistry* metrics,
                                       prof::Profiler* profiler) {
  const prof::Scope span(profiler, "elastic.checkpoint");
  ONES_EXPECT(!request.new_workers.empty());
  ScalingReport report;
  report.started_at = engine.now();
  report.paused_at = engine.now();  // training stops immediately

  auto log = [&](double t, const std::string& what) {
    std::ostringstream os;
    os << "t=" << t << "s  " << what;
    report.timeline.push_back(os.str());
  };

  double t = engine.now();
  log(t, "training stopped; saving checkpoint to HDFS");
  t += profile.params_bytes / costs.hdfs_bw_Bps;
  log(t, "checkpoint saved; waiting for the scheduler");
  t += costs.scheduler_delay_s;
  log(t, "restarting framework on the new workers");
  t += costs.framework_init_s;
  log(t, "re-warming the input pipeline");
  t += costs.data_pipeline_warmup_s;
  log(t, "loading checkpoint onto the GPUs");
  t += profile.params_bytes / costs.hdfs_bw_Bps + costs.model_load_s;
  log(t, "training resumes");

  report.new_workers_ready_at = t;
  report.resumed_at = t;
  report.blocked_s = t - report.started_at;
  report.total_s = report.blocked_s;
  if (metrics != nullptr) {
    metrics->counter("checkpoint_migrations_total").add();
    metrics->counter("checkpoint_blocked_seconds_total").add(report.blocked_s);
    metrics->gauge("checkpoint_last_blocked_seconds").set(report.blocked_s);
  }
  return report;
}

}  // namespace ones::elastic
