#include "energy/meter.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace ones::energy {

EnergyMeter::EnergyMeter(const PowerModel& model, const cluster::Topology& topology,
                         ProfileLookup profile_of)
    : model_(&model),
      topology_(&topology),
      profile_of_(std::move(profile_of)),
      watts_by_node_(static_cast<std::size_t>(topology.num_nodes()), 0.0),
      joules_by_node_(static_cast<std::size_t>(topology.num_nodes()), 0.0) {
  ONES_EXPECT(profile_of_ != nullptr);
  rescan(cluster::Assignment(topology_->total_gpus()));
}

void EnergyMeter::set_metrics(telemetry::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry_ != nullptr) {
    watts_series_ = registry_->timeline().series("cluster_watts");
    publish(last_t_);
  }
}

void EnergyMeter::accumulate(double now) {
  ONES_EXPECT_MSG(now >= last_t_, "sim clock moved backwards");
  const double dt = now - last_t_;
  if (dt > 0.0) {
    cluster_joules_ += cluster_watts_ * dt;
    overhead_joules_ += overhead_watts_ * dt;
    for (const auto& [job, watts] : watts_by_job_) {
      joules_by_job_[job] += watts * dt;
    }
    for (std::size_t n = 0; n < watts_by_node_.size(); ++n) {
      joules_by_node_[n] += watts_by_node_[n] * dt;
    }
    if (registry_ != nullptr) {
      registry_->counter("energy_cluster_joules_total").add(cluster_watts_ * dt);
      registry_->counter("energy_overhead_joules_total").add(overhead_watts_ * dt);
    }
  }
  last_t_ = now;
}

void EnergyMeter::rescan(const cluster::Assignment& next) {
  watts_by_job_.clear();
  watts_by_node_.assign(watts_by_node_.size(), 0.0);
  // Per-node base draw is unconditional: a node is powered whether or not
  // any of its GPUs host a worker.
  const double base = model_->node_base_watts();
  for (double& w : watts_by_node_) w += base;
  overhead_watts_ = base * static_cast<double>(topology_->num_nodes());

  for (JobId job : next.running_jobs()) {
    const model::TaskProfile* profile = profile_of_(job);
    ONES_EXPECT_MSG(profile != nullptr, "no task profile for a placed job");
    const auto gpus = next.gpus_of(job);
    batches_.clear();
    for (GpuId g : gpus) batches_.push_back(next.slot(g).local_batch);
    const cluster::LinkProfile link = topology_->link_profile(gpus);
    double job_w = 0.0;
    for (std::size_t i = 0; i < gpus.size(); ++i) {
      const double w = model_->worker_watts(*profile, batches_, i, link);
      watts_by_node_[static_cast<std::size_t>(topology_->node_of(gpus[i]))] += w;
      job_w += w;
    }
    watts_by_job_.emplace_back(job, job_w);
  }
  std::sort(watts_by_job_.begin(), watts_by_job_.end());  // JobIds are distinct

  const double idle = model_->idle_gpu_watts();
  for (GpuId g : next.idle_gpus()) {
    watts_by_node_[static_cast<std::size_t>(topology_->node_of(g))] += idle;
    overhead_watts_ += idle;
  }

  cluster_watts_ = overhead_watts_;
  for (const auto& [job, watts] : watts_by_job_) cluster_watts_ += watts;
}

double EnergyMeter::job_joules(JobId job) const {
  const auto it = joules_by_job_.find(job);
  return it == joules_by_job_.end() ? 0.0 : it->second;
}

void EnergyMeter::publish(double now) {
  if (registry_ == nullptr) return;
  registry_->timeline().record(watts_series_, now, cluster_watts_);
  registry_->gauge("energy_cluster_watts").set(cluster_watts_);
}

void EnergyMeter::on_assignment(const cluster::Assignment& next, double now) {
  accumulate(now);
  rescan(next);
  publish(now);
}

void EnergyMeter::finalize(double now) {
  accumulate(now);
  publish(now);
}

}  // namespace ones::energy
