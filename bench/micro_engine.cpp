// Microbenchmarks (google-benchmark) for the event core, a binary heap over
// an event arena (DESIGN.md §12.1). The hold model is the classic
// priority-queue stress: keep H events pending and, on every fire, schedule
// one replacement a pseudo-random delay ahead — steady state exercises
// insert and extract-min at a fixed queue depth. The backlog variant adds
// far-future events that never come due, as a trace replay that schedules
// every arrival up front does. The cancel bench measures the
// generation-tagged handle path (schedule + cancel round trip).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "micro_report.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ones;

/// Deterministic exponential-ish delay spread over two decades, so events
/// interleave across the queue instead of piling onto one instant.
double delay_of(Rng& rng, int i) { return 0.01 + rng.uniform() * (i % 2 ? 1.0 : 99.99); }

/// Hold model at `hold` pending events, on top of `backlog` far-future
/// events scheduled first.
void run_hold(benchmark::State& state, int hold, int backlog) {
  sim::SimEngine engine;
  Rng rng(42);
  for (int i = 0; i < backlog; ++i) {
    engine.schedule_after(1e9 + delay_of(rng, i), [] {});
  }
  std::uint64_t scheduled = 0;
  // Self-perpetuating events: each fire schedules its replacement.
  std::function<void()> tick = [&] {
    engine.schedule_after(delay_of(rng, static_cast<int>(scheduled++)), tick);
  };
  for (int i = 0; i < hold; ++i) {
    engine.schedule_after(delay_of(rng, i), tick);
  }
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Hold model at a queue depth of `state.range(0)` pending events.
void BM_EngineHold(benchmark::State& state) {
  run_hold(state, static_cast<int>(state.range(0)), 0);
}

/// fifo_2kgpu's shape: 512 near-future events above a backlog of
/// `state.range(0)` far-future ones, so every pop sifts through the
/// backlog's depth.
void BM_EngineHoldWithBacklog(benchmark::State& state) {
  run_hold(state, 512, static_cast<int>(state.range(0)));
}

/// Schedule + cancel round trip at a background queue depth of
/// `state.range(0)` (every handle is cancelled while still pending).
void BM_EngineScheduleCancel(benchmark::State& state) {
  const int hold = static_cast<int>(state.range(0));
  sim::SimEngine engine;
  Rng rng(43);
  for (int i = 0; i < hold; ++i) {
    engine.schedule_after(1e6 + delay_of(rng, i), [] {});
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    const sim::EventId id =
        engine.schedule_after(delay_of(rng, static_cast<int>(n++)), [] {});
    benchmark::DoNotOptimize(engine.cancel(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Burst drain: schedule `state.range(0)` events up front, drain them all —
/// the arrival-heavy phase of a trace replay (insertions far ahead of the
/// clock, then a monotone sweep).
void BM_EngineBurstDrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimEngine engine;
    Rng rng(44);
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      engine.schedule_after(delay_of(rng, i), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}

BENCHMARK(BM_EngineHold)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 20);
BENCHMARK(BM_EngineHoldWithBacklog)->Arg(10000)->Arg(100000);
BENCHMARK(BM_EngineScheduleCancel)->Arg(1 << 10)->Arg(1 << 18);
BENCHMARK(BM_EngineBurstDrain)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

int main(int argc, char** argv) {
  return ones::bench::run_micro_bench("micro_engine", argc, argv);
}
