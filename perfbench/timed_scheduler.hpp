// Outside-in decision timer for the host-time benchmark.
//
// `TimedScheduler` wraps any sched::Scheduler and times each on_event call
// with std::chrono::steady_clock, by event kind, counting the calls that
// return a deployment. It adds no span site to the program: it only sits
// between the simulation driver and the policy, and it forwards everything
// the driver configures on a scheduler so the wrapped policy decides exactly
// as it would unwrapped (perfbench_test.cpp checks the outcome digests).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "sched/scheduler.hpp"

namespace ones::perfbench {

/// Log-linear latency histogram over nanoseconds: exact below 128 ns, then
/// 128 sub-buckets per power of two (under 0.8% relative width). Memory is
/// fixed, so a long run's latency samples never inflate the process's peak
/// RSS, which the benchmark reports as a metric of its own.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    ++counts_[bucket_of(ns)];
    ++count_;
    total_ns_ += ns;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    total_ns_ += other.total_ns_;
  }
  std::uint64_t count() const { return count_; }
  std::uint64_t total_ns() const { return total_ns_; }

  /// Nearest-rank quantile in nanoseconds: exact below 128 ns, above that
  /// interpolated linearly inside the bucket holding the rank. 0 when empty.
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const std::uint64_t rank = rank_of(q);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double lo = static_cast<double>(lower_bound(i));
        if (i < kSub) return lo;
        const double width = static_cast<double>(lower_bound(i + 1)) - lo;
        return lo + width * (static_cast<double>(rank - seen) - 0.5) /
                        static_cast<double>(counts_[i]);
      }
      seen += counts_[i];
    }
    return static_cast<double>(lower_bound(kBuckets));
  }

  /// Samples ranked above the `q` quantile: the ones its tail rests on.
  std::uint64_t beyond(double q) const { return count_ == 0 ? 0 : count_ - rank_of(q); }

 private:
  static constexpr std::size_t kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kMaxExp = 40;  // ~18 minutes; larger values clamp
  static constexpr std::size_t kBuckets = kSub + (kMaxExp - kSubBits + 1) * kSub;

  /// 1-based nearest rank of quantile `q` among count_ > 0 samples.
  std::uint64_t rank_of(double q) const {
    const double exact = q * static_cast<double>(count_);
    auto rank = static_cast<std::uint64_t>(std::ceil(exact));
    return std::clamp<std::uint64_t>(rank, 1, count_);
  }
  static std::size_t bucket_of(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const auto e = static_cast<std::size_t>(std::bit_width(ns) - 1);
    if (e > kMaxExp) return kBuckets - 1;
    const auto sub = static_cast<std::size_t>(ns >> (e - kSubBits)) & (kSub - 1);
    return kSub + (e - kSubBits) * kSub + sub;
  }
  static std::uint64_t lower_bound(std::size_t bucket) {
    if (bucket < kSub) return bucket;
    const std::size_t e = (bucket - kSub) / kSub + kSubBits;
    const std::size_t sub = (bucket - kSub) % kSub;
    return (std::uint64_t{1} << e) + (std::uint64_t{sub} << (e - kSubBits));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
};

/// sched::EventKind values, indexed by their underlying integer.
inline constexpr std::size_t kEventKinds = 5;

/// Per-kind decision statistics of one policy.
struct DecisionStats {
  std::array<LatencyHistogram, kEventKinds> by_kind;
  std::array<std::uint64_t, kEventKinds> deploying{};

  LatencyHistogram pooled() const {
    LatencyHistogram all;
    for (const auto& h : by_kind) all.merge(h);
    return all;
  }
  std::uint64_t deployments() const {
    std::uint64_t n = 0;
    for (const auto d : deploying) n += d;
    return n;
  }
  void merge(const DecisionStats& other) {
    for (std::size_t k = 0; k < kEventKinds; ++k) {
      by_kind[k].merge(other.by_kind[k]);
      deploying[k] += other.deploying[k];
    }
  }
};

class TimedScheduler final : public sched::Scheduler {
 public:
  /// `inner` and `stats` are not owned and must outlive this decorator.
  TimedScheduler(sched::Scheduler& inner, DecisionStats& stats)
      : inner_(inner), stats_(stats) {}

  std::string name() const override { return inner_.name(); }
  // Without these two the driver would charge ONES checkpoint costs and
  // give Optimus / Gandiva no timer events.
  sched::ScalingMechanism mechanism() const override { return inner_.mechanism(); }
  double period_s() const override { return inner_.period_s(); }

  void set_metrics(telemetry::MetricsRegistry* metrics) override {
    sched::Scheduler::set_metrics(metrics);
    inner_.set_metrics(metrics);
  }
  void set_profiler(prof::Profiler* profiler) override {
    sched::Scheduler::set_profiler(profiler);
    inner_.set_profiler(profiler);
  }

  std::optional<cluster::Assignment> on_event(const sched::ClusterState& state,
                                              const sched::SchedulerEvent& event) override {
    // set_trace_sink is non-virtual, so the driver installs its sink on this
    // decorator; hand it on or ONES would drop its EvolutionStep records.
    inner_.set_trace_sink(trace_sink_);
    const auto begin = std::chrono::steady_clock::now();
    std::optional<cluster::Assignment> next = inner_.on_event(state, event);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
    const auto k = static_cast<std::size_t>(event.kind);
    stats_.by_kind[k].record(static_cast<std::uint64_t>(ns));
    if (next.has_value()) ++stats_.deploying[k];
    return next;
  }

 private:
  sched::Scheduler& inner_;
  DecisionStats& stats_;
};

}  // namespace ones::perfbench
