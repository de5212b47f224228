#include "telemetry/registry.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace ones::telemetry {

void Counter::add(double delta) {
  ONES_EXPECT_MSG(delta >= 0.0, "counters only go up");
  value_ += delta;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  ONES_EXPECT_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    ONES_EXPECT_MSG(bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly increasing");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  count_ += 1;
}

double Histogram::quantile(double q) const {
  ONES_EXPECT_MSG(q >= 0.0 && q <= 1.0, "quantile requires q in [0, 1]");
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double in_bucket = static_cast<double>(counts_[b]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate linearly inside [lo, hi); the open-ended overflow bucket
      // and the first bucket use the observed extrema as their missing edge.
      const double lo = b == 0 ? std::min(min_, bounds_[0]) : bounds_[b - 1];
      const double hi = b < bounds_.size() ? bounds_[b] : max_;
      if (hi <= lo) return hi;
      const double frac = in_bucket > 0.0 ? (rank - seen) / in_bucket : 0.0;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return max_;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(const std::string& name, Kind kind) {
  ONES_EXPECT_MSG(!name.empty(), "instrument needs a name");
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    ONES_EXPECT_MSG(it->second.kind == kind,
                    "instrument '" + name + "' already registered with another kind");
    return it->second;
  }
  Entry e;
  e.kind = kind;
  return entries_.emplace(name, std::move(e)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Entry& e = entry_for(name, Kind::Counter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Entry& e = entry_for(name, Kind::Gauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  Entry& e = entry_for(name, Kind::Histogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else {
    ONES_EXPECT_MSG(e.histogram->bounds() == bounds,
                    "histogram '" + name + "' re-registered with different buckets");
  }
  return *e.histogram;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.kind == Kind::Counter
             ? it->second.counter.get()
             : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.kind == Kind::Gauge ? it->second.gauge.get()
                                                                : nullptr;
}

double MetricsRegistry::counter_value(const std::string& name) const {
  const Counter* c = find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  const Gauge* g = find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

}  // namespace ones::telemetry
