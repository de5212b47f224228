#include "prof/profiler.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/expect.hpp"

namespace ones::prof {

// ones-lint-begin: wall-clock-ok(host-time profiler, DESIGN.md §14: observability only — off unless --prof-dir, never a cache-key input, never a simulated quantity)
std::uint64_t Profiler::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
// ones-lint-end: wall-clock-ok

Profiler::Profiler() : epoch_ns_(now_ns()) {
  nodes_.emplace_back();  // root pseudo-span
}

void Profiler::enable_timeline(std::size_t max_events) {
  ONES_EXPECT_MSG(max_events > 0, "timeline capacity must be positive");
  timeline_cap_ = max_events;
  events_.reserve(std::min(max_events, std::size_t{4096}));
}

std::size_t Profiler::enter(std::string_view name) {
  ONES_EXPECT_MSG(name.find('/') == std::string_view::npos,
                  "span names must not contain '/', the path separator");
  Node& cur = nodes_[current_];
  const auto it = cur.children.find(name);
  std::size_t node;
  if (it != cur.children.end()) {
    node = it->second;
  } else {
    node = nodes_.size();
    nodes_.emplace_back();
    nodes_.back().name = std::string(name);
    nodes_.back().parent = current_;
    // cur may dangle after emplace_back — re-index.
    nodes_[current_].children.emplace(std::string(name), node);
  }
  current_ = node;
  return node;
}

void Profiler::exit(std::size_t node, std::uint64_t start_ns) {
  const std::uint64_t now = now_ns();
  const std::uint64_t dur = now >= start_ns ? now - start_ns : 0;
  Node& n = nodes_[node];
  ++n.count;
  n.total_ns += dur;
  n.max_ns = std::max(n.max_ns, dur);
  ++n.buckets[std::min<std::size_t>(std::bit_width(dur), SpanStats::kBuckets - 1)];
  nodes_[n.parent].child_ns += dur;
  current_ = n.parent;
  if (timeline_cap_ > 0) {
    if (events_.size() < timeline_cap_) {
      const std::uint64_t rel =
          start_ns >= epoch_ns_ ? start_ns - epoch_ns_ : 0;
      events_.push_back({node, rel, dur});
    } else {
      ++dropped_;
    }
  }
}

void Profiler::append_stats(std::size_t node, const std::string& prefix,
                            std::vector<SpanStats>& out) const {
  const Node& n = nodes_[node];
  std::string path = prefix;
  if (node != 0) {
    if (!path.empty()) path += '/';
    path += n.name;
    SpanStats s;
    s.path = path;
    s.count = n.count;
    s.total_ns = n.total_ns;
    s.self_ns = n.total_ns >= n.child_ns ? n.total_ns - n.child_ns : 0;
    s.max_ns = n.max_ns;
    s.buckets = n.buckets;
    out.push_back(std::move(s));
  }
  // std::map children: lexicographic order, so the flattened list is sorted
  // by path without a separate sort pass.
  for (const auto& [name, child] : n.children) append_stats(child, path, out);
}

std::vector<SpanStats> Profiler::stats() const {
  std::vector<SpanStats> out;
  out.reserve(nodes_.size());
  append_stats(0, "", out);
  return out;
}

std::string Profiler::path_of(std::size_t node) const {
  ONES_EXPECT_MSG(node < nodes_.size(), "unknown profiler node");
  std::string path;
  for (std::size_t i = node; i != 0; i = nodes_[i].parent) {
    path = path.empty() ? nodes_[i].name : nodes_[i].name + "/" + path;
  }
  return path;
}

void ProfileRollup::add(const std::vector<SpanStats>& stats) {
  for (const SpanStats& s : stats) {
    SpanStats& agg = by_path_[s.path];
    agg.path = s.path;
    agg.count += s.count;
    agg.total_ns += s.total_ns;
    agg.self_ns += s.self_ns;
    agg.max_ns = std::max(agg.max_ns, s.max_ns);
    for (std::size_t b = 0; b < SpanStats::kBuckets; ++b) agg.buckets[b] += s.buckets[b];
  }
}

std::vector<SpanStats> ProfileRollup::stats() const {
  std::vector<SpanStats> out;
  out.reserve(by_path_.size());
  for (const auto& [path, agg] : by_path_) out.push_back(agg);
  return out;
}

}  // namespace ones::prof
