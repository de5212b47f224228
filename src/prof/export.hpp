// Profile exporters (DESIGN.md §14): the stderr summary table, the
// `<stem>.prof.json` side file, and Chrome trace-event JSON strings that
// merge a run's host spans into its `--trace-dir` Perfetto trace.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "prof/profiler.hpp"

namespace ones::prof {

/// Human-readable span table (count, total/self milliseconds, and p50/p90/
/// max microseconds from the log2 histogram), one line per span path, each
/// prefixed "[prof] ". For stderr: host times are wall-clock noise and must
/// never reach the byte-stable metric stdout.
std::string format_profile(const std::vector<SpanStats>& stats);

/// The span array `[{"path":...,"count":N,"total_ns":N,"self_ns":N},...]`,
/// shared by the profile file and the BENCH_*.json "profile" array.
void write_spans_json(std::ostream& out, const std::vector<SpanStats>& stats);

/// Deterministic-layout profile JSON: `{"schema":1,"spans":<span array>}`.
/// Span paths and counts are reproducible; the nanosecond fields are host
/// measurements.
void write_profile_json(std::ostream& out, const std::vector<SpanStats>& stats);

/// Write `<dir>/<stem>.prof.json` (creating `dir` if needed) through
/// `common::write_file_atomically`: an interrupted run never leaves a file
/// that looks complete.
void write_profile_file(const std::string& dir, const std::string& stem,
                        const std::vector<SpanStats>& stats);

/// Serialize the profiler's captured timeline as Chrome trace-event objects
/// (one JSON object string per span, plus pid/thread metadata), suitable for
/// ChromeTraceSink::raw_event. Host spans render on their own process track
/// (pid 1) so they sit next to — but never interleave with — the sim-time
/// job tracks on pid 0. Timestamps are microseconds since the profiler's
/// epoch; requires `enable_timeline`.
std::vector<std::string> chrome_span_events(const Profiler& profiler);

}  // namespace ones::prof
