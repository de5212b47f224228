#include "energy/meter.hpp"

#include <utility>

#include "common/expect.hpp"

namespace ones::energy {

EnergyMeter::EnergyMeter(const PowerModel& model, const cluster::Topology& topology,
                         ProfileLookup profile_of)
    : model_(&model), topology_(&topology), profile_of_(std::move(profile_of)) {
  ONES_EXPECT(profile_of_ != nullptr);
  draw_ = cluster_draw(*model_, *topology_, cluster::Assignment(topology_->total_gpus()),
                       profile_of_);
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
    cluster_joules_ += draw_.cluster_w * dt;
    overhead_joules_ += draw_.overhead_w * dt;
    if (registry_ != nullptr) {
      registry_->counter("energy_cluster_joules_total").add(draw_.cluster_w * dt);
      registry_->counter("energy_overhead_joules_total").add(draw_.overhead_w * dt);
    }
  }
  last_t_ = now;
}

void EnergyMeter::publish(double now) {
  if (registry_ == nullptr) return;
  registry_->timeline().record(watts_series_, now, draw_.cluster_w);
  registry_->gauge("energy_cluster_watts").set(draw_.cluster_w);
}

void EnergyMeter::on_assignment(const cluster::Assignment& next, double now) {
  accumulate(now);
  draw_ = cluster_draw(*model_, *topology_, next, profile_of_);
  publish(now);
}

void EnergyMeter::finalize(double now) {
  accumulate(now);
  publish(now);
}

}  // namespace ones::energy
