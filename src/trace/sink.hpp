// Trace sinks: where emitted records go.
//
// Emitters (the simulation driver, schedulers, the elastic protocol) hold a
// plain `TraceSink*` that defaults to null; every emission site is guarded by
// a null check BEFORE any record is constructed, so tracing disabled — the
// default — costs one predictable branch and nothing else. Two on-disk
// formats are provided: deterministic JSONL (the replay / golden-digest
// format) and the Chrome trace-event format, loadable in Perfetto or
// chrome://tracing for visual inspection.
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/record.hpp"

namespace ones::trace {

/// Consumer of trace records. Implementations need not be thread-safe: each
/// run is simulated on one thread and owns its sink(s).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_record(const TraceRecord& record) = 0;
};

/// Collects records in memory (tests, in-process invariant checking).
class RecordBufferSink final : public TraceSink {
 public:
  void on_record(const TraceRecord& record) override { records_.push_back(record); }
  const std::vector<TraceRecord>& records() const { return records_; }

 private:
  std::vector<TraceRecord> records_;
};

/// Deterministic JSONL: one record per line, fixed key order, %.17g doubles.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}
  void on_record(const TraceRecord& record) override;

 private:
  std::ostream& out_;
};

/// Chrome trace-event JSON (the "JSON Array Format" with a traceEvents
/// wrapper object). Job lifecycles render as duration slices on one track
/// per job (tid = job + 1), re-configuration pauses as `X` spans whose
/// duration is the blocked time, evolution progress as a counter track.
/// Engine-level SimEvent records are omitted (pure noise visually).
/// `close()` writes the footer; the owner must call it (or destroy the sink)
/// while the underlying stream is still alive.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& out);
  ~ChromeTraceSink() override;
  void on_record(const TraceRecord& record) override;
  void close();

  /// Append a pre-serialized trace event verbatim (one JSON object, no
  /// trailing comma). The host-time profiler merges its wall-clock span
  /// track through this (DESIGN.md §14); the caller owns the JSON shape.
  void raw_event(const std::string& event_json);

 private:
  void emit(const std::string& event_json);
  void instant(const TraceRecord& r, const std::string& name);
  void end_slice(const TraceRecord& r);
  void begin_slice(const TraceRecord& r);

  std::ostream& out_;
  bool closed_ = false;
  bool first_ = true;
  std::unordered_set<JobId> open_slice_;
};

/// Stamps every forwarded record with the current engine event sequence
/// number. The simulation driver updates `set_seq` from the engine's fire
/// hook and hands THIS sink to every emitter (itself, the scheduler), so all
/// records of one run carry a consistent, non-decreasing seq without each
/// emitter knowing about the engine.
class SeqStampedSink final : public TraceSink {
 public:
  explicit SeqStampedSink(TraceSink& inner) : inner_(inner) {}
  void set_seq(std::uint64_t seq) { seq_ = seq; }
  void on_record(const TraceRecord& record) override {
    TraceRecord stamped = record;
    stamped.seq = seq_;
    inner_.on_record(stamped);
  }

 private:
  TraceSink& inner_;
  std::uint64_t seq_ = 0;
};

/// Fans each record out to several sinks (e.g. JSONL + Chrome for one run).
class MultiSink final : public TraceSink {
 public:
  explicit MultiSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}
  void on_record(const TraceRecord& record) override {
    for (TraceSink* s : sinks_) s->on_record(record);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Adapter for elastic::ScalingSession::set_phase_hook: turns each protocol
/// milestone into a ProtocolPhase record for `job`. Declared here (not in
/// `elastic`) so the protocol keeps no trace dependency.
inline std::function<void(double, const std::string&)> protocol_phase_hook(
    TraceSink& sink, JobId job) {
  return [&sink, job](double t, const std::string& what) {
    TraceRecord r;
    r.kind = RecordKind::ProtocolPhase;
    r.t = t;
    r.job = job;
    r.detail = what;
    sink.on_record(r);
  };
}

/// Owns the two on-disk trace files of one run: `<dir>/<stem>.jsonl` and
/// `<dir>/<stem>.trace.json`. Records stream to uniquely-named temp files
/// that only `close()` renames into place; a writer destroyed unclosed (the
/// run threw) deletes them, so a failed run leaves no trace file at all and
/// concurrent writers of an identical spec never interleave.
class RunTraceWriter final : public TraceSink {
 public:
  RunTraceWriter(const std::string& dir, const std::string& stem);
  ~RunTraceWriter() override;
  void on_record(const TraceRecord& record) override;
  void close();

  /// Forward a pre-serialized event into the Chrome (.trace.json) file ONLY.
  /// The deterministic JSONL stream — the replay / golden-digest format —
  /// never sees it, so merged host-profiler tracks cannot move the digest.
  void chrome_raw_event(const std::string& event_json);

 private:
  std::string jsonl_path_;
  std::string chrome_path_;
  std::string jsonl_tmp_;
  std::string chrome_tmp_;
  std::ofstream jsonl_out_;
  std::ofstream chrome_out_;
  std::unique_ptr<JsonlSink> jsonl_;
  std::unique_ptr<ChromeTraceSink> chrome_;
  bool closed_ = false;
};

}  // namespace ones::trace
