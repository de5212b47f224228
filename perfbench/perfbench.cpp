// Host-time benchmark of the ONES simulator: how long a trace takes to
// simulate and how long each scheduling decision takes (README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// One single-threaded process runs one workload. It repeats the workload's
// runs ("passes") until --seconds have elapsed and reports medians over the
// passes. With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics, each host time normalized for the host's speed by
// calibrations (host_speed.hpp) taken before and after it; with --trace 1
// each pass is run once plain and once with the program's own instruments
// attached (prof::Profiler, a trace sink checked by trace::TraceReplayer),
// and the JSON holds the per-layer metrics plus the tracing overhead. Every
// run is checked: it must finish all jobs, repeat the same outcome digest on
// every pass, match the pinned digest on the default seed, and (traced) pass
// replay invariants I1-I10.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/host.hpp"
#include "core/ones_scheduler.hpp"
#include "host_speed.hpp"
#include "prof/profiler.hpp"
#include "sched/simulation.hpp"
#include "timed_scheduler.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

using namespace ones;
using namespace ones::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Outcome digests of every run on kDefaultSeed, in workload run order.
/// Regenerate by running each workload with `--seed 1` and copying the
/// printed digests, only when a change is meant to alter simulated results.
std::vector<std::uint64_t> pinned_digests(const std::string& workload) {
  if (workload == "ones_32gpu") {
    return {0xff20a7b36d717967ULL, 0xac4ab3bc1a1a8b79ULL, 0x9c9217f6025829b5ULL,
            0x9276c85caa32df58ULL, 0x21936ecbc0e45878ULL, 0xbcef0d8716c22e86ULL,
            0xf9f34fc45627e00eULL, 0x8a28030dac6f31d2ULL, 0xc00737e9989db165ULL,
            0x054661a359fbac90ULL, 0xeb164078a354e62dULL, 0x9642333626b3509eULL,
            0xdf48142e59cc4b8aULL, 0xeae035352d97f7bbULL, 0x53943c3bba5635beULL,
            0x91e6e2b818267649ULL};
  }
  if (workload == "fifo_2kgpu") return {0xafe03c684a4c2c99ULL, 0x6c71a930c1f28273ULL};
  if (workload == "baselines_chaos_64gpu") {
    return {0x9c2f97ae0c124b19ULL, 0xecce906e14bbbdc8ULL, 0x7ac696e809672f34ULL,
            0xcd4db41162a8d36cULL, 0xdd46bbb01a2ecd3dULL, 0x21ea88ea4d0d44c8ULL};
  }
  return {};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Metric-name form of a policy name ("SRTF*" -> "SRTF_").
std::string metric_token(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

// ---- host / build fingerprint ----

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
      }
    }
  }
  return "unknown";
}

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void print_fingerprint() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf("host: build_type=%s optimized=%s compiler=\"%s\" cpu=\"%s\" nproc=%u "
              "threads=%d\n",
              PERFBENCH_BUILD_TYPE, optimized_build() ? "yes" : "NO", compiler.c_str(),
              cpu_model().c_str(), std::thread::hardware_concurrency(), thread_count());
  if (!optimized_build()) {
    std::printf("WARNING: unoptimized build; host times are not comparable\n");
  }
}

// ---- one pass over a workload's runs ----

/// Per-layer observations of one or more traced passes, summed.
struct LayerTotals {
  std::map<std::string, DecisionStats> by_policy;  ///< on_event timings
  prof::ProfileRollup spans;
  double run_s = 0.0;         ///< host seconds inside ClusterSimulation::run
  double generate_s = 0.0;    ///< workload::generate_trace
  double drl_train_s = 0.0;   ///< DRL scheduler construction + offline training
  std::uint64_t events = 0;
  std::uint64_t evolution_rounds = 0;
  std::uint64_t ones_deployments = 0;
};

/// One pass's host times. All but `raw_sim_wall_s` and `latency` are
/// normalized for the host's speed when the Bench calibrates.
struct PassResult {
  double setup_s = 0.0;         ///< host seconds before the first simulated event
  double sim_wall_s = 0.0;      ///< sum of ClusterSimulation::run over the runs
  double raw_sim_wall_s = 0.0;  ///< sim_wall_s as measured
  double decision_s = 0.0;      ///< host seconds inside on_event
  LatencyHistogram latency;     ///< every on_event call of the pass's runs, as measured
  bool failed = false;
};

/// One run, built and ready to simulate.
struct LiveRun {
  std::unique_ptr<sched::Scheduler> policy;
  std::unique_ptr<DecisionStats> stats;
  std::unique_ptr<TimedScheduler> timed;
  std::unique_ptr<prof::Profiler> profiler;
  std::unique_ptr<trace::RecordBufferSink> sink;
  std::unique_ptr<sched::ClusterSimulation> sim;
  std::string setup_error;
};

class Bench {
 public:
  /// With `calibrate`, every host time is scaled by the host's speed
  /// (HostSpeed) measured just before and just after it.
  Bench(Workload workload, std::uint64_t seed, bool calibrate)
      : workload_(std::move(workload)), seed_(seed),
        pinned_(pinned_digests(workload_.name)), reference_(workload_.runs.size()) {
    if (calibrate) {
      speed_ = std::make_unique<HostSpeed>();
      calibration_ms_ = speed_->measure_ms();
      calibrated_at_ = Clock::now();
    }
  }

  /// Factor that normalizes a host time measured since the previous call:
  /// HostSpeed::kReferenceMs over the geometric mean of the calibrations
  /// at the interval's two ends. 1 when not calibrating.
  double speed_factor() {
    if (!speed_) return 1.0;
    const double now_ms = speed_->measure_ms();
    const double factor = HostSpeed::kReferenceMs / std::sqrt(calibration_ms_ * now_ms);
    calibration_ms_ = now_ms;
    calibrated_at_ = Clock::now();
    return factor;
  }

  /// Set up every run of the workload, then simulate them in order. With
  /// `layers` non-null the program's instruments are attached and per-layer
  /// observations are added to it.
  PassResult pass(LayerTotals* layers) {
    PassResult out;
    Pending pending;
    const auto t0 = Clock::now();
    std::vector<LiveRun> live = set_up(layers);
    pending.setup_s = seconds_since(t0);
    settle(out, pending, false);

    for (std::size_t i = 0; i < live.size(); ++i) {
      const RunDef& def = workload_.runs[i];
      LiveRun& l = live[i];
      ++attempted_;
      std::string failure = l.setup_error.empty() ? "" : "set-up threw: " + l.setup_error;
      double wall = 0.0;
      if (failure.empty()) {
        const auto tr = Clock::now();
        try {
          l.sim->run();
        } catch (const std::exception& e) {
          failure = std::string("threw: ") + e.what();
        }
        wall = seconds_since(tr);
        if (failure.empty()) failure = check(i, *l.sim, *l.stats, l.sink.get());
      }
      out.raw_sim_wall_s += wall;
      pending.sim_wall_s += wall;
      if (failure.empty()) {
        const LatencyHistogram latency = l.stats->pooled();
        out.latency.merge(latency);
        pending.decision_s += static_cast<double>(latency.total_ns()) * 1e-9;
        if (layers != nullptr) {
          layers->by_policy[def.policy].merge(*l.stats);
          layers->spans.add(*l.profiler);
          layers->run_s += wall;
          layers->events += l.sim->events_fired();
          if (const auto* ones = dynamic_cast<const core::OnesScheduler*>(l.policy.get())) {
            layers->evolution_rounds += ones->evolution_rounds();
            layers->ones_deployments += l.stats->deployments();
          }
        }
      } else {
        ++failed_;
        out.failed = true;
        std::printf("FAILED run %zu (%s): %s\n", i, def.policy.c_str(), failure.c_str());
      }
      settle(out, pending, i + 1 == live.size());
    }
    return out;
  }

  /// Set-up alone (what pass() times before its first event), discarded.
  double setup_only() {
    const auto t0 = Clock::now();
    const std::vector<LiveRun> live = set_up(nullptr);
    return seconds_since(t0);
  }

  /// Keeps the calibration kernels' results observable.
  std::uint64_t calibration_checksum() const { return speed_ ? speed_->checksum() : 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  /// Host times measured since the latest calibration, not yet normalized.
  struct Pending {
    double setup_s = 0.0;
    double sim_wall_s = 0.0;
    double decision_s = 0.0;
  };

  /// Normalizes `pending` by the host speed over its interval and adds it to
  /// `out`. A calibration takes about 0.1 s, so it waits until the interval
  /// holds a second of work, or until the pass's `last` run has ended.
  void settle(PassResult& out, Pending& pending, bool last) {
    if (speed_ && !last && seconds_since(calibrated_at_) < 1.0) return;
    const double factor = speed_factor();
    out.setup_s += pending.setup_s * factor;
    out.sim_wall_s += pending.sim_wall_s * factor;
    out.decision_s += pending.decision_s * factor;
    pending = Pending{};
  }

  /// Trace generation, policy construction (DRL trains here) and simulation
  /// construction for every run; a run whose set-up throws keeps the error.
  std::vector<LiveRun> set_up(LayerTotals* layers) const {
    std::vector<LiveRun> live(workload_.runs.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const RunDef& def = workload_.runs[i];
      LiveRun& l = live[i];
      try {
        const auto tg = Clock::now();
        auto trace = workload::generate_trace(def.trace);
        if (layers != nullptr) layers->generate_s += seconds_since(tg);
        const auto tp = Clock::now();
        l.policy = policy_factory(def.policy)();
        if (layers != nullptr && def.policy == "DRL") layers->drl_train_s += seconds_since(tp);
        l.stats = std::make_unique<DecisionStats>();
        l.timed = std::make_unique<TimedScheduler>(*l.policy, *l.stats);
        sched::SimulationConfig config = def.sim;
        if (layers != nullptr) {
          l.profiler = std::make_unique<prof::Profiler>();
          l.sink = std::make_unique<trace::RecordBufferSink>();
          config.profiler = l.profiler.get();
          config.trace_sink = l.sink.get();
        }
        l.sim = std::make_unique<sched::ClusterSimulation>(config, std::move(trace), *l.timed);
      } catch (const std::exception& e) {
        l.setup_error = e.what();
      }
    }
    return live;
  }

  /// Correctness of one finished run; empty when it passes.
  std::string check(std::size_t i, const sched::ClusterSimulation& sim,
                    const DecisionStats& stats, const trace::RecordBufferSink* sink) {
    const RunDef& def = workload_.runs[i];
    if (!sim.all_completed()) {
      return "left " + std::to_string(def.trace.num_jobs - static_cast<int>(sim.completed_jobs())) +
             " jobs incomplete";
    }
    // The run really executed: a simulation (never a cached result) fired
    // events and consulted the policy through the timer.
    if (sim.events_fired() == 0 || stats.pooled().count() == 0) return "run did not execute";
    if (stats.deployments() != sim.deployments()) {
      return "timer counted " + std::to_string(stats.deployments()) +
             " deploying decisions, driver applied " + std::to_string(sim.deployments());
    }
    // Traced runs fire extra bookkeeping events, so they are held to the
    // digest without events; untraced passes must repeat the full digest.
    const bool traced = sink != nullptr;
    const std::uint64_t digest = outcome_digest(sim, def.policy, !traced);
    if (!reference_[i].has_value()) {
      if (traced) return "traced run has no untraced reference";
      reference_[i] = {digest, outcome_digest(sim, def.policy, false)};
      std::printf("run %zu %-8s digest=0x%s events=%llu deployments=%llu "
                  "avg_jct=%.6f completed=%zu\n",
                  i, def.policy.c_str(), hex(digest).c_str(),
                  static_cast<unsigned long long>(sim.events_fired()),
                  static_cast<unsigned long long>(sim.deployments()),
                  sim.summary(def.policy).avg_jct, sim.completed_jobs());
      if (seed_ == kDefaultSeed && (i >= pinned_.size() || pinned_[i] != digest)) {
        return "digest 0x" + hex(digest) + " differs from pinned 0x" +
               hex(i < pinned_.size() ? pinned_[i] : 0);
      }
    } else {
      const std::uint64_t expected = traced ? reference_[i]->second : reference_[i]->first;
      if (digest != expected) {
        return std::string(traced ? "traced " : "") + "digest 0x" + hex(digest) +
               " differs from this run's first pass 0x" + hex(expected);
      }
    }
    if (sink != nullptr) {
      const trace::ReplayReport report = trace::TraceReplayer().check(sink->records());
      if (!report.ok()) return "replay invariants failed: " + report.to_string();
    }
    return "";
  }

  static std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
  }

  Workload workload_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> pinned_;
  /// First untraced pass's digest per run: with and without events fired.
  std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>> reference_;
  std::unique_ptr<HostSpeed> speed_;
  double calibration_ms_ = 0.0;  ///< the latest calibration
  Clock::time_point calibrated_at_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

const char* kind_token(std::size_t k) {
  return sched::event_name(static_cast<sched::EventKind>(k));
}

/// The (policy, kind) pairs that appear in some workload: their per-kind
/// metrics are printed by every traced run (0 where the workload lacks them),
/// so each workload reports the same per-layer names.
std::vector<std::pair<std::string, std::size_t>> reported_pairs() {
  using K = sched::EventKind;
  const auto k = [](K kind) { return static_cast<std::size_t>(kind); };
  std::vector<std::pair<std::string, std::size_t>> pairs;
  for (K kind : {K::JobArrival, K::EpochComplete, K::JobComplete}) {
    pairs.emplace_back("ONES", k(kind));
  }
  for (const char* policy : {"DRL", "Tiresias", "Optimus", "FIFO", "SRTF*", "Gandiva"}) {
    for (K kind : {K::JobArrival, K::EpochComplete, K::JobComplete, K::CapacityChange}) {
      pairs.emplace_back(policy, k(kind));
    }
  }
  pairs.emplace_back("Optimus", k(K::Timer));
  pairs.emplace_back("Gandiva", k(K::Timer));
  return pairs;
}

/// Span paths (their trailing components) read from prof::Profiler. Each
/// metric sums the span's self time and count over every path it ends.
const std::vector<std::string>& reported_spans() {
  static const std::vector<std::string> spans = {
      "evolve.refresh", "evolve.offspring", "evolve.select", "predict.fit",
      "decision/arrival", "decision/epoch", "decision/complete", "decision/timer",
      "decision/capacity", "apply", "engine.pop", "engine.schedule", "engine.cancel"};
  return spans;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  if (path == suffix) return true;
  return path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0 &&
         path[path.size() - suffix.size() - 1] == '/';
}

std::string dotted(std::string s) {
  std::replace(s.begin(), s.end(), '/', '.');
  return s;
}

std::vector<Metric> layer_metrics(const LayerTotals& t, double passes,
                                  double untraced_sim_s, double traced_sim_s) {
  std::vector<Metric> m;
  double decision_s = 0.0;
  std::uint64_t decisions = 0, deployments = 0;
  std::printf("per-layer (traced, per pass):\n");
  for (const auto& [policy, stats] : t.by_policy) {
    for (std::size_t k = 0; k < kEventKinds; ++k) {
      const LatencyHistogram& h = stats.by_kind[k];
      if (h.count() == 0) continue;
      std::printf("  policy %-8s %-8s n=%-8llu total=%.6f s p50=%.3f us p99=%.3f us "
                  "deploying=%llu\n",
                  policy.c_str(), kind_token(k),
                  static_cast<unsigned long long>(h.count()),
                  static_cast<double>(h.total_ns()) * 1e-9 / passes,
                  h.quantile_ns(0.5) * 1e-3, h.quantile_ns(0.99) * 1e-3,
                  static_cast<unsigned long long>(stats.deploying[k]));
    }
    decision_s += static_cast<double>(stats.pooled().total_ns()) * 1e-9;
    decisions += stats.pooled().count();
    deployments += stats.deployments();
  }
  static const LatencyHistogram kEmpty;
  for (const auto& [policy, k] : reported_pairs()) {
    const std::string base = "policy." + metric_token(policy) + "." + kind_token(k) + ".";
    const auto it = t.by_policy.find(policy);
    const LatencyHistogram& h = it == t.by_policy.end() ? kEmpty : it->second.by_kind[k];
    m.push_back({base + "total_s", static_cast<double>(h.total_ns()) * 1e-9 / passes, "s"});
    m.push_back({base + "p50_us", h.quantile_ns(0.5) * 1e-3, "us"});
    m.push_back({base + "p99_us", h.quantile_ns(0.99) * 1e-3, "us"});
  }
  const double run_s = t.run_s / passes;
  const double self_s = (t.run_s - decision_s) / passes;
  const double events = static_cast<double>(t.events) / passes;
  m.push_back({"sched.run_s", run_s, "s"});
  m.push_back({"sched.driver_self_s", self_s, "s"});
  m.push_back({"sched.driver_us_per_event", events > 0 ? self_s * 1e6 / events : 0.0,
               "us"});
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sched.decisions", static_cast<double>(decisions) / passes, "count"});
  m.push_back({"sched.deployments", static_cast<double>(deployments) / passes, "count"});
  m.push_back({"sched.policy_share", t.run_s > 0 ? decision_s / t.run_s : 0.0, "ratio"});
  m.push_back({"sched.deploy_ratio",
               decisions > 0 ? static_cast<double>(deployments) / static_cast<double>(decisions)
                             : 0.0,
               "ratio"});
  m.push_back({"core.evolution_rounds", static_cast<double>(t.evolution_rounds) / passes,
               "count"});
  m.push_back({"core.deploys_per_round",
               t.evolution_rounds > 0 ? static_cast<double>(t.ones_deployments) /
                                            static_cast<double>(t.evolution_rounds)
                                      : 0.0,
               "ratio"});
  m.push_back({"workload.generate_s", t.generate_s / passes, "s"});
  m.push_back({"drl.train_s", t.drl_train_s / passes, "s"});

  const auto spans = t.spans.stats();
  std::printf("  spans (path count total_s self_s):\n");
  for (const auto& s : spans) {
    std::printf("    %-48s %10.0f %12.6f %12.6f\n", s.path.c_str(),
                static_cast<double>(s.count) / passes,
                static_cast<double>(s.total_ns) * 1e-9 / passes,
                static_cast<double>(s.self_ns) * 1e-9 / passes);
  }
  for (const std::string& name : reported_spans()) {
    std::uint64_t count = 0, self_ns = 0;
    for (const auto& s : spans) {
      if (path_ends_with(s.path, name)) {
        count += s.count;
        self_ns += s.self_ns;
      }
    }
    const std::string base = "prof." + dotted(name) + ".";
    m.push_back({base + "self_s", static_cast<double>(self_ns) * 1e-9 / passes, "s"});
    // A decision span's count equals its policy kind's call count.
    if (name.rfind("decision/", 0) != 0) {
      m.push_back({base + "count", static_cast<double>(count) / passes, "count"});
    }
  }
  m.push_back({"trace.overhead_s", traced_sim_s - untraced_sim_s, "s"});
  m.push_back({"trace.overhead_share",
               untraced_sim_s > 0 ? (traced_sim_s - untraced_sim_s) / untraced_sim_s : 0.0,
               "ratio"});

  std::printf("  run %.4f s = driver self %.4f s + on_event %.4f s; policy share %.1f%%\n",
              run_s, self_s, decision_s / passes, run_s > 0 ? 100.0 * (decision_s / passes) / run_s : 0.0);
  std::printf("  tracing overhead: traced %.4f s - untraced %.4f s = %.4f s (%.1f%%)\n",
              traced_sim_s, untraced_sim_s, traced_sim_s - untraced_sim_s,
              untraced_sim_s > 0 ? 100.0 * (traced_sim_s - untraced_sim_s) / untraced_sim_s
                                 : 0.0);
  return m;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "workloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      opt.trace = value == "1";
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  Workload workload = make_workload(opt.workload, opt.seed);
  if (workload.runs.empty()) return usage("unknown --workload");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d runs_per_pass=%zu\n",
              workload.name.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, workload.runs.size());
  print_fingerprint();
  std::fflush(stdout);

  // Untraced runs report host times normalized for the host's speed (see
  // Bench). Traced runs do not calibrate; their per-layer metrics are raw.
  Bench bench(std::move(workload), opt.seed, !opt.trace);
  std::vector<double> setup, sim_wall, decision_mean, decision_p99, traced_wall;
  LatencyHistogram pooled;
  LayerTotals layers;
  if (!opt.trace) {
    // Set-up is short next to a pass; repeat it alone for about a second
    // (at least 5 times) so its median rests on many samples.
    std::vector<double> raw;
    const auto setup_start = Clock::now();
    while (raw.size() < 5 || seconds_since(setup_start) < 1.0) {
      raw.push_back(bench.setup_only());
    }
    const double factor = bench.speed_factor();
    for (const double s : raw) setup.push_back(s * factor);
    std::printf("set-up alone: %zu samples, median %.6f s, host speed factor %.4f\n",
                raw.size(), median(raw), factor);
  }
  // Passes continue while the next one is expected to end within --seconds.
  const auto measure_start = Clock::now();
  int passes = 0;
  do {
    const PassResult p = bench.pass(nullptr);
    ++passes;
    const LatencyHistogram& h = p.latency;
    // The p99 call is scaled by the pass's time-weighted speed factor.
    const double factor = p.raw_sim_wall_s > 0.0 ? p.sim_wall_s / p.raw_sim_wall_s : 1.0;
    setup.push_back(p.setup_s);
    sim_wall.push_back(p.sim_wall_s);
    if (h.count() > 0) {
      decision_mean.push_back(p.decision_s * 1e6 / static_cast<double>(h.count()));
      decision_p99.push_back(h.quantile_ns(0.99) * 1e-3 * factor);
    }
    pooled.merge(h);
    std::printf("pass %d: setup %.6f s, sim %.6f s (measured %.6f s), %llu decisions, "
                "p99 %.3f us measured (%llu beyond)%s\n",
                passes, p.setup_s, p.sim_wall_s, p.raw_sim_wall_s,
                static_cast<unsigned long long>(h.count()), h.quantile_ns(0.99) * 1e-3,
                static_cast<unsigned long long>(h.beyond(0.99)), p.failed ? " (FAILED)" : "");
    if (opt.trace) {
      const PassResult t = bench.pass(&layers);
      traced_wall.push_back(t.sim_wall_s);
      std::printf("pass %d traced: sim %.6f s%s\n", passes, t.sim_wall_s,
                  t.failed ? " (FAILED)" : "");
    }
    std::fflush(stdout);
  } while (seconds_since(measure_start) * (passes + 1) / passes <= opt.seconds);

  const bool correct = bench.failed() == 0;
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = layer_metrics(layers, static_cast<double>(passes), median(sim_wall),
                            median(traced_wall));
  } else {
    std::printf("measured decision p99 %.3f us over all %llu calls (%llu beyond)\n",
                pooled.quantile_ns(0.99) * 1e-3,
                static_cast<unsigned long long>(pooled.count()),
                static_cast<unsigned long long>(pooled.beyond(0.99)));
    metrics = {
        {"sim_wall_s", median(sim_wall), "s"},
        {"decision_mean_us", median(decision_mean), "us"},
        {"decision_p99_us", median(decision_p99), "us"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mib", common::peak_rss_mib(), "MiB"},
        // 1 + the share of runs that failed their check: 1.0 when none did
        // (the metric must never read 0).
        {"failed_runs",
         1.0 + static_cast<double>(bench.failed()) / static_cast<double>(bench.attempted()),
         "1_plus_share"},
    };
  }
  if (!opt.trace) {
    std::printf("calibration checksum %llu\n",
                static_cast<unsigned long long>(bench.calibration_checksum()));
  }
  print_result(correct, bench.attempted(), bench.failed(), metrics);
  return 0;
}
