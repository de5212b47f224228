#include "prof/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/json.hpp"

namespace ones::prof {

namespace fs = std::filesystem;

namespace {

/// q-quantile of a span's durations in nanoseconds: linear interpolation
/// inside the log2 bucket that holds rank q * count, with the bucket's upper
/// edge capped at `max_ns` (the telemetry::Histogram::quantile rule). 0 when
/// the span never ran.
double quantile_ns(const SpanStats& s, double q) {
  const double rank = q * static_cast<double>(s.count);
  double seen = 0.0;
  for (std::size_t b = 0; b < s.buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(s.buckets[b]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= rank) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = std::max(
          lo, std::min(std::ldexp(1.0, static_cast<int>(b)), static_cast<double>(s.max_ns)));
      return lo + (hi - lo) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return static_cast<double>(s.max_ns);
}

}  // namespace

std::string format_profile(const std::vector<SpanStats>& stats) {
  // The path column fits the longest path (40 characters at least), and the
  // header is printed through the same widths, so every number sits under
  // its heading however deep the span tree goes.
  int width = 40;
  for (const SpanStats& s : stats) width = std::max(width, static_cast<int>(s.path.size()));
  std::string out;
  std::vector<char> line(static_cast<std::size_t>(width) + 256);
  std::snprintf(line.data(), line.size(), "[prof] %-*s %9s %13s %13s %12s %12s %12s\n", width,
                "span", "count", "total(ms)", "self(ms)", "p50(us)", "p90(us)", "max(us)");
  out += line.data();
  for (const SpanStats& s : stats) {
    std::snprintf(line.data(), line.size(),
                  "[prof] %-*s %9llu %13.3f %13.3f %12.3f %12.3f %12.3f\n", width,
                  s.path.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e6, static_cast<double>(s.self_ns) / 1e6,
                  quantile_ns(s, 0.50) / 1e3, quantile_ns(s, 0.90) / 1e3,
                  static_cast<double>(s.max_ns) / 1e3);
    out += line.data();
  }
  return out;
}

void write_spans_json(std::ostream& out, const std::vector<SpanStats>& stats) {
  out << '[';
  bool first = true;
  for (const SpanStats& s : stats) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"path\":" << json_quote(s.path) << ",\"count\":" << s.count
        << ",\"total_ns\":" << s.total_ns << ",\"self_ns\":" << s.self_ns << '}';
  }
  out << "\n]";
}

void write_profile_json(std::ostream& out, const std::vector<SpanStats>& stats) {
  out << "{\"schema\":1,\"spans\":";
  write_spans_json(out, stats);
  out << "}\n";
}

void write_profile_file(const std::string& dir, const std::string& stem,
                        const std::vector<SpanStats>& stats) {
  fs::create_directories(dir);
  common::write_file_atomically((fs::path(dir) / (stem + ".prof.json")).string(),
                                [&](std::ostream& out) { write_profile_json(out, stats); });
}

std::vector<std::string> chrome_span_events(const Profiler& profiler) {
  std::vector<std::string> events;
  events.reserve(profiler.timeline().size() + 2);
  // Dedicated host-time process track: pid 0 carries the sim-time job
  // slices, pid 1 the wall-clock profiler spans.
  events.push_back(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":"
      "{\"name\":\"host profiler (wall-clock)\"}}");
  events.push_back(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":"
      "{\"name\":\"spans\"}}");
  for (const Profiler::TimelineEvent& ev : profiler.timeline()) {
    std::ostringstream os;
    os << "{\"name\":" << json_quote(profiler.path_of(ev.node))
       << ",\"cat\":\"host\",\"ph\":\"X\",\"ts\":"
       << json_double(static_cast<double>(ev.start_ns) / 1e3)
       << ",\"dur\":" << json_double(static_cast<double>(ev.dur_ns) / 1e3)
       << ",\"pid\":1,\"tid\":0}";
    events.push_back(os.str());
  }
  if (profiler.timeline_dropped() > 0) {
    std::ostringstream os;
    os << "{\"name\":\"profiler timeline truncated: "
       << profiler.timeline_dropped()
       << " spans dropped\",\"cat\":\"host\",\"ph\":\"i\",\"s\":\"p\",\"ts\":0,"
       << "\"pid\":1,\"tid\":0}";
    events.push_back(os.str());
  }
  return events;
}

}  // namespace ones::prof
