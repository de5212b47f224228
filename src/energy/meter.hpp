// Sim-time energy accounting (DESIGN.md §10).
//
// The meter holds the cluster's current draw — the whole cluster and its
// overhead share (idle GPUs + per-node base power), both from
// `cluster_draw` — and integrates it into joules whenever the schedule
// changes:
//
//   joules += watts * (now - last_change)
//
// The driver feeds every assignment change through `on_assignment` and
// closes the final interval with `finalize`, so the totals are exact
// integrals of the step-function power draw — the property
// tests/energy_test.cpp checks against the exported `cluster_watts` timeline.
//
// Determinism: watts derive from PowerModel (pure), intervals from the sim
// clock. The optional MetricsRegistry follows the §9 contract — null by
// default, one branch per emission site, attaching it never changes joules.
#pragma once

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"
#include "energy/power_model.hpp"
#include "telemetry/registry.hpp"

namespace ones::energy {

class EnergyMeter {
 public:
  /// Starts metering at sim-time 0 with an empty (all-idle) cluster.
  /// `model` and `topology` are borrowed, not owned; `profile_of` must stay
  /// valid for the meter's lifetime and cover every job that ever appears in
  /// an assignment.
  EnergyMeter(const PowerModel& model, const cluster::Topology& topology,
              ProfileLookup profile_of);

  /// Attach a registry (may be null). Publishes the `cluster_watts` timeline
  /// series, the `energy_cluster_watts` gauge and the monotone
  /// `energy_*_joules_total` counters.
  void set_metrics(telemetry::MetricsRegistry* registry);

  /// Integrate the previous watts up to `now`, then recompute the draw from
  /// `next`. Call on every applied schedule change (idempotent for repeated
  /// calls at the same sim-time or an unchanged assignment).
  void on_assignment(const cluster::Assignment& next, double now);

  /// Close the final interval at the end of the run.
  void finalize(double now);

  /// Sim-time up to which joules have been integrated (the last
  /// on_assignment/finalize time).
  double metered_until() const { return last_t_; }

  double cluster_joules() const { return cluster_joules_; }
  double overhead_joules() const { return overhead_joules_; }

 private:
  void accumulate(double now);
  void publish(double now);

  const PowerModel* model_;
  const cluster::Topology* topology_;
  ProfileLookup profile_of_;

  double last_t_ = 0.0;
  ClusterDraw draw_;
  double cluster_joules_ = 0.0;
  double overhead_joules_ = 0.0;

  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::TimelineSampler::SeriesId watts_series_ = 0;
};

}  // namespace ones::energy
