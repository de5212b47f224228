// Trace (de)serialization: CSV round-tripping of JobSpecs, so traces can be
// generated once, archived, edited by hand, and replayed across schedulers
// or tools outside this process.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/trace.hpp"

namespace ones::workload {

/// Columns: id,model,dataset,dataset_size,num_classes,arrival_s,
///          requested_gpus,requested_batch,dynamics_seed,kill_after_s
void write_trace_csv(std::ostream& os, const std::vector<JobSpec>& trace);

/// Parse a trace written by write_trace_csv. Throws std::logic_error on
/// malformed input (wrong column count, non-numeric fields, unknown model).
/// Ids are kept as written; a trace to simulate needs ids 0..N-1, each once
/// (sched::ClusterSimulation rejects anything else).
std::vector<JobSpec> read_trace_csv(std::istream& is);

/// File-path conveniences.
void save_trace(const std::string& path, const std::vector<JobSpec>& trace);
std::vector<JobSpec> load_trace(const std::string& path);

}  // namespace ones::workload
