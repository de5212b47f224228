// Multi-format exporters for the sim-time metrics registry (DESIGN.md §9).
//
// Three on-disk formats of every instrument. Each instrument is a pure
// function of the simulation, so the bytes are deterministic for any thread
// count:
//   * timeline CSV   — `t,series,value` rows in emission order,
//   * Prometheus text-format snapshot (`# HELP`/`# TYPE` + samples),
//   * JSON summary   — one object per instrument, reusing `common/json`
//                      quoting and exact `%.17g` doubles.
// Host time is not a registry quantity: it is measured by the `prof` spans
// (DESIGN.md §14).
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/registry.hpp"

namespace ones::telemetry {

/// `t,series,value` CSV of the timeline (header always present; doubles
/// rendered %.17g so re-runs compare byte-for-byte).
void write_timeline_csv(std::ostream& os, const TimelineSampler& timeline);

/// Prometheus text exposition format of every instrument, sorted
/// by name. Histograms emit cumulative `_bucket{le=...}` samples plus
/// `_sum` / `_count`.
void write_prometheus(std::ostream& os, const MetricsRegistry& registry);

/// Flat JSON object keyed by instrument name (sorted), each value an object
/// with `type` plus the instrument's data; histograms include bucket counts
/// and p50/p90/p99 estimates.
void write_json_summary(std::ostream& os, const MetricsRegistry& registry);

/// Write the three export files `<dir>/<stem>.timeline.csv`, `<stem>.prom`
/// and `<stem>.metrics.json`, creating `dir` as needed. Each file is written
/// by `common::write_file_atomically`, so concurrent writers of an identical
/// spec never interleave and an interrupted run never leaves a file that
/// looks complete. Throws std::runtime_error on I/O failure.
void write_metrics_files(const MetricsRegistry& registry, const std::string& dir,
                         const std::string& stem);

}  // namespace ones::telemetry
