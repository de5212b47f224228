// Machine-readable exporters for run results: CSV (per-job rows, ECDF
// series) and a compact JSON summary. Benches and examples use these to
// hand results to plotting scripts without re-parsing console tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ones::telemetry {

/// Write one row per finished job:
/// job_id,arrival_s,completion_s,jct_s,exec_s,queue_s,preemptions,aborted
///
/// "Finished" means the job reached a terminal state, normal or not:
///  * Aborted jobs (on_abort) DO get a row — aborted=1, completion_s is the
///    abort time, and jct/exec/queue are measured up to that point. They are
///    deliberately excluded from the Summary's jct/exec/queue aggregates
///    (an abort is not a completion), so the CSV is the only place their
///    numbers surface; plotting scripts must filter on the aborted column.
///  * Jobs submitted but never finished (still waiting or running when the
///    simulation horizon ends) have completion_s < 0 and emit NO row: their
///    partial times would be horizon artifacts, not job outcomes. The gap
///    between submitted ids and CSV rows is the signal that a run truncated.
void write_jobs_csv(std::ostream& os, const MetricsCollector& metrics);

/// Write an empirical CDF of `values` as "value,cum_fraction" rows.
void write_ecdf_csv(std::ostream& os, const std::vector<double>& values,
                    const std::string& value_header = "value");

/// Serialize a Summary as a single JSON object (flat, stable key order;
/// doubles round-trip exactly, as common/json writes them).
std::string summary_to_json(const Summary& summary);

/// Serialize several summaries as a JSON array.
std::string summaries_to_json(const std::vector<Summary>& summaries);

}  // namespace ones::telemetry
