#include "telemetry/exporters.hpp"

#include <cstdint>
#include <filesystem>
#include <ostream>

#include "common/atomic_file.hpp"
#include "common/json.hpp"

namespace fs = std::filesystem;

namespace ones::telemetry {

void write_timeline_csv(std::ostream& os, const TimelineSampler& timeline) {
  os << "t,series,value\n";
  for (const TimelineSampler::Point& p : timeline.points()) {
    os << json_double(p.t) << ',' << timeline.name(p.series) << ','
       << json_double(p.value) << '\n';
  }
}

namespace {

const char* kind_name(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::Counter: return "counter";
    case MetricsRegistry::Kind::Gauge: return "gauge";
    case MetricsRegistry::Kind::Histogram: return "histogram";
  }
  return "unknown";
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  for (const auto& [name, e] : registry.entries()) {
    os << "# TYPE " << name << ' ' << kind_name(e.kind) << '\n';
    switch (e.kind) {
      case MetricsRegistry::Kind::Counter:
        os << name << ' ' << json_double(e.counter->value()) << '\n';
        break;
      case MetricsRegistry::Kind::Gauge:
        os << name << ' ' << json_double(e.gauge->value()) << '\n';
        break;
      case MetricsRegistry::Kind::Histogram: {
        const Histogram& h = *e.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < h.bounds().size(); ++b) {
          cumulative += h.bucket_counts()[b];
          os << name << "_bucket{le=\"" << json_double(h.bounds()[b]) << "\"} "
             << cumulative << '\n';
        }
        cumulative += h.bucket_counts().back();
        os << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
        os << name << "_sum " << json_double(h.sum()) << '\n';
        os << name << "_count " << h.count() << '\n';
        break;
      }
    }
  }
}

void write_json_summary(std::ostream& os, const MetricsRegistry& registry) {
  os << "{";
  bool first = true;
  for (const auto& [name, e] : registry.entries()) {
    os << (first ? "\n" : ",\n") << "  " << json_quote(name) << ": {\"type\": \""
       << kind_name(e.kind) << "\", ";
    first = false;
    switch (e.kind) {
      case MetricsRegistry::Kind::Counter:
        os << "\"value\": " << json_double(e.counter->value()) << '}';
        break;
      case MetricsRegistry::Kind::Gauge:
        os << "\"value\": " << json_double(e.gauge->value()) << '}';
        break;
      case MetricsRegistry::Kind::Histogram: {
        const Histogram& h = *e.histogram;
        os << "\"count\": " << h.count() << ", \"sum\": " << json_double(h.sum())
           << ", \"min\": " << json_double(h.min())
           << ", \"max\": " << json_double(h.max()) << ", \"bounds\": [";
        for (std::size_t b = 0; b < h.bounds().size(); ++b) {
          os << (b ? ", " : "") << json_double(h.bounds()[b]);
        }
        os << "], \"buckets\": [";
        for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
          os << (b ? ", " : "") << h.bucket_counts()[b];
        }
        os << "], \"p50\": " << json_double(h.quantile(0.50))
           << ", \"p90\": " << json_double(h.quantile(0.90))
           << ", \"p99\": " << json_double(h.quantile(0.99)) << '}';
        break;
      }
    }
  }
  os << (first ? "}" : "\n}") << '\n';
}

void write_metrics_files(const MetricsRegistry& registry, const std::string& dir,
                         const std::string& stem) {
  fs::create_directories(dir);
  const fs::path base = fs::path(dir) / stem;
  common::write_file_atomically(base.string() + ".timeline.csv", [&](std::ostream& os) {
    write_timeline_csv(os, registry.timeline());
  });
  common::write_file_atomically(base.string() + ".prom",
                                [&](std::ostream& os) { write_prometheus(os, registry); });
  common::write_file_atomically(base.string() + ".metrics.json",
                                [&](std::ostream& os) { write_json_summary(os, registry); });
}

}  // namespace ones::telemetry
