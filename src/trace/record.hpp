// Typed trace records for structured run tracing.
//
// Every simulated run can emit a decision-level event stream: job lifecycle
// transitions as the driver applies scheduler decisions, the elastic
// protocol's pause/resume brackets around each re-configuration, the ONES
// evolutionary search progress, and the raw scheduler-event deliveries. The
// stream is deterministic (it is a pure function of the run, which is itself
// deterministic), so tests can pin digests of it, diff it across revisions,
// and replay it through the invariant checker in trace/replay.hpp.
//
// Serialization is one JSON object per line (JSONL) with a fixed key order
// and %.17g doubles, so the bytes are stable across thread counts, runs and
// platforms. DESIGN.md §8 documents the schema and the invariants.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace ones::trace {

enum class RecordKind {
  RunBegin,         ///< header: scheduler name, cluster size, trace size
  RunEnd,           ///< footer: jobs finished (converged or aborted)
  JobSubmitted,     ///< job arrived in the queue
  JobAdmitted,      ///< first time the job ever received GPUs
  JobPlaced,        ///< job (re)started on a set of GPUs
  JobPreempted,     ///< job stopped, back to the queue
  JobReconfigured,  ///< worker set / batch changed in place (elastic resize)
  BatchResized,     ///< global batch changed (training dynamics perturbed)
  JobCompleted,     ///< job left the system (converged or aborted)
  ElasticPaused,    ///< protocol paused training for a re-configuration
  ElasticResumed,   ///< training resumed in the new configuration
  ProtocolPhase,    ///< fine-grained elastic protocol milestone (Fig 12)
  EvolutionStep,    ///< ONES advanced its evolutionary search
  SimEvent,         ///< scheduler event delivery (arrival/epoch/complete/timer)
  GpuFailed,        ///< a GPU went down (fault injection, DESIGN.md §13)
  GpuRepaired,      ///< a down GPU came back
  JobRecovered,     ///< a failure-impacted job resumed making progress
};

const char* kind_name(RecordKind kind);
/// Inverse of kind_name; throws std::runtime_error on an unknown name.
RecordKind kind_from_name(std::string_view name);

/// One trace record. Deliberately a flat struct: every kind uses a subset of
/// the fields (unused ones stay at their defaults), which keeps sinks,
/// serialization and the replayer free of a class hierarchy.
struct TraceRecord {
  RecordKind kind = RecordKind::SimEvent;
  double t = 0.0;           ///< simulated seconds
  JobId job = kInvalidJob;  ///< -1 when the record is not job-scoped
  int gpus = 0;             ///< worker count c_j; RunBegin: cluster GPU total
  int global_batch = 0;     ///< B_j; RunBegin: number of jobs in the trace
  int old_gpus = 0;         ///< previous c_j (preempt / reconfigure)
  int old_batch = 0;        ///< previous B_j (preempt / reconfigure / resize)
  double cost_s = 0.0;      ///< blocked time charged for the transition
  bool aborted = false;     ///< JobCompleted: abnormal ending (§2.1)
  std::uint64_t seq = 0;    ///< engine event sequence at emission (stamped
                            ///< centrally by SeqStampedSink; non-decreasing)
  std::uint64_t count = 0;  ///< EvolutionStep: cumulative round counter;
                            ///< RunEnd: jobs finished
  std::string detail;       ///< GPU list "0,1,5" (placement records),
                            ///< event / phase / mechanism name, model name;
                            ///< GpuFailed/GpuRepaired: "<health> <gpu list>"
                            ///< (new health name + affected GPUs);
                            ///< JobRecovered: "shrink" | "restart"

  bool operator==(const TraceRecord&) const = default;
};

/// One-line JSON rendering with fixed key order and exact doubles.
std::string to_jsonl_line(const TraceRecord& record);

/// Parse one JSONL line; throws std::runtime_error on malformed input.
TraceRecord record_from_jsonl_line(std::string_view line);

/// Parse a whole JSONL document (one record per non-empty line).
std::vector<TraceRecord> parse_jsonl(std::string_view text);

/// GPU list payload of placement records: "0,1,5" <-> {0, 1, 5}.
std::string format_gpu_list(std::span<const GpuId> gpus);
std::vector<GpuId> parse_gpu_list(const std::string& detail);

}  // namespace ones::trace
