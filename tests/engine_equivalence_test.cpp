// Differential property harness: the production heap SimEngine vs the
// reference priority-queue engine (tests/reference_engine.hpp).
//
// Both engines are driven in lock-step through the same deterministic op
// script (seeded randomized schedule_at / schedule_after / cancel /
// run_until / step interleavings, adversarial same-timestamp bursts, exact
// and far-future times, schedule-and-cancel from within callbacks, and a
// cancel-heavy episode in which most events die before they come due).
// After every op the harness asserts byte-identical fire order (tag
// sequence), now() trajectories, cancel() return values and pending()
// counts. Any divergence is a semantics bug in the production engine — the
// reference engine is the spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reference_engine.hpp"
#include "sim/engine.hpp"

namespace ones::sim {
namespace {

// Drives one engine and records everything observable about it. Callbacks
// behave deterministically as a function of their tag: some schedule a
// child, some cancel an earlier event, some cancel themselves — so the two
// harnesses stay mirrored exactly as long as their fire orders match (which
// is what the test asserts after every op).
template <typename EngineT>
class Harness {
 public:
  EngineT engine;
  std::vector<EventId> id_of_tag;
  std::vector<std::pair<double, int>> fire_log;  // (now() at fire, tag)
  std::vector<int> cancel_log;                   // in-callback cancel results
  int next_tag = 0;
  // When set, some callbacks also cancel the next-scheduled event, which is
  // often still pending (a same-instant sibling or a far-future event).
  bool cancel_ahead = false;

  int schedule_abs(double when) {
    const int tag = next_tag++;
    id_of_tag.push_back(engine.schedule_at(when, callback(tag)));
    return tag;
  }

  int schedule_rel(double delay) {
    const int tag = next_tag++;
    id_of_tag.push_back(engine.schedule_after(delay, callback(tag)));
    return tag;
  }

  bool cancel_tag(int tag) { return engine.cancel(id_of_tag[static_cast<std::size_t>(tag)]); }

 private:
  std::function<void()> callback(int tag) {
    return [this, tag] {
      fire_log.emplace_back(engine.now(), tag);
      if (tag % 7 == 3 && tag / 2 < tag) {
        // Cancel-from-within-a-callback targeting an unrelated event.
        cancel_log.push_back(cancel_tag(tag / 2) ? 1 : 0);
      }
      if (cancel_ahead && tag % 3 == 1 && tag + 1 < next_tag) {
        cancel_log.push_back(cancel_tag(tag + 1) ? 1 : 0);
      }
      if (tag % 11 == 5) {
        // Self-cancel while firing: must be a deterministic no-op -> false.
        cancel_log.push_back(cancel_tag(tag) ? 1 : 0);
      }
      if (tag % 5 == 0 && tag < 4000000) {
        // Events scheduling more events, including exact-now ties.
        const double delay = (tag % 3 == 0) ? 0.0 : 0.25 * static_cast<double>(tag % 16);
        schedule_rel(delay);
      }
    };
  }
};

class LockStep {
 public:
  Harness<SimEngine> dut;
  Harness<testing::ReferenceEngine> ref;

  void check(const char* where) {
    ASSERT_EQ(dut.engine.now(), ref.engine.now()) << where;
    ASSERT_EQ(dut.engine.pending(), ref.engine.pending()) << where;
    ASSERT_EQ(dut.engine.fired(), ref.engine.fired()) << where;
    ASSERT_EQ(dut.next_tag, ref.next_tag) << where;
    ASSERT_EQ(dut.fire_log, ref.fire_log) << where;
    ASSERT_EQ(dut.cancel_log, ref.cancel_log) << where;
  }

  int schedule_abs(double when) {
    ref.schedule_abs(when);
    return dut.schedule_abs(when);
  }

  void schedule_rel(double delay) {
    dut.schedule_rel(delay);
    ref.schedule_rel(delay);
  }

  void cancel(int tag) {
    ASSERT_EQ(dut.cancel_tag(tag), ref.cancel_tag(tag)) << "cancel tag " << tag;
  }

  void run_until(double limit) {
    dut.engine.run_until(limit);
    ref.engine.run_until(limit);
  }

  void step() { ASSERT_EQ(dut.engine.step(), ref.engine.step()); }

  void drain() {
    dut.engine.run();
    ref.engine.run();
  }
};

// One randomized differential episode; the fuzz tests below sweep seeds.
void run_episode(std::uint64_t seed, int ops) {
  LockStep ls;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const auto kind = rng.uniform_int(0, 9);
    const double now = ls.dut.engine.now();
    switch (kind) {
      case 0:  // plain near-future absolute time
        ls.schedule_abs(now + rng.uniform(0.0, 100.0));
        break;
      case 1: {  // adversarial same-timestamp burst
        const double when = now + rng.uniform(0.0, 50.0);
        const auto burst = rng.uniform_int(2, 12);
        for (std::int64_t i = 0; i < burst; ++i) ls.schedule_abs(when);
        break;
      }
      case 2:  // exact integers and power-of-two steps: many exact-time ties
        ls.schedule_abs(now + static_cast<double>(rng.uniform_int(0, 64)) *
                                  (rng.bernoulli(0.5) ? 1.0 : 0.0078125));
        break;
      case 3:  // far-future outlier: sits deep in the queue until a long jump
        ls.schedule_abs(now + rng.uniform(1e6, 1e12));
        break;
      case 4:  // relative scheduling, including zero delay
        ls.schedule_rel(rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.0, 200.0));
        break;
      case 5:  // cancel a random tag (may be pending, fired, or already cancelled)
        if (ls.dut.next_tag > 0) {
          ls.cancel(static_cast<int>(rng.uniform_int(0, ls.dut.next_tag - 1)));
        }
        break;
      case 6:  // double-cancel the same tag back to back
        if (ls.dut.next_tag > 0) {
          const int tag = static_cast<int>(rng.uniform_int(0, ls.dut.next_tag - 1));
          ls.cancel(tag);
          ls.cancel(tag);
        }
        break;
      case 7:  // bounded advance; events exactly at the limit must fire
        ls.run_until(now + rng.uniform(0.0, 150.0));
        break;
      case 8: {  // single-step a few times
        const auto steps = rng.uniform_int(1, 5);
        for (std::int64_t i = 0; i < steps; ++i) ls.step();
        break;
      }
      default:  // long jump, occasionally past the far-future outliers
        ls.run_until(now + (rng.bernoulli(0.1) ? 1e13 : 1e5));
        break;
    }
    ls.check("after op");
    if (::testing::Test::HasFatalFailure()) return;
  }
  ls.drain();
  ls.check("after drain");
}

TEST(EngineEquivalence, RandomizedLockStepSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_episode(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EngineEquivalence, LongEpisodeExercisesResizeBothWays) {
  // Ten times the sweep's episode length on one seed (the queue peaks at a
  // few dozen pending events), then a drain to empty; op mix identical to
  // the sweep.
  run_episode(/*seed=*/424242, /*ops=*/3000);
}

// Cancel-heavy episode: most scheduled events are cancelled while pending —
// near, same-instant and far-future ones, by the script and from inside
// callbacks — and each run_until limit falls at or between cancelled times,
// so a cancelled event must never fire or stop the clock.
void run_cancel_heavy_episode(std::uint64_t seed, int ops) {
  LockStep ls;
  ls.dut.cancel_ahead = ls.ref.cancel_ahead = true;
  Rng rng(seed);
  std::vector<std::pair<double, int>> open;  // (when, tag), maybe still pending
  std::vector<double> cancelled_at;          // times of script-cancelled events
  int cancelled = 0;
  for (int op = 0; op < ops; ++op) {
    const double now = ls.dut.engine.now();
    const auto kind = rng.uniform_int(0, 9);
    if (kind <= 1) {  // same-instant burst, often at now
      const double when = rng.bernoulli(0.3) ? now : now + rng.uniform(0.0, 100.0);
      const auto count = rng.uniform_int(2, 10);
      for (std::int64_t i = 0; i < count; ++i) open.emplace_back(when, ls.schedule_abs(when));
    } else if (kind <= 4) {  // a batch mixing near and far-future times
      const auto count = rng.uniform_int(1, 12);
      for (std::int64_t i = 0; i < count; ++i) {
        const double when = now + (rng.bernoulli(0.5) ? rng.uniform(0.0, 100.0)
                                                      : rng.uniform(1e6, 1e12));
        open.emplace_back(when, ls.schedule_abs(when));
      }
    } else if (kind <= 7) {  // cancel most of what may still be pending
      std::vector<std::pair<double, int>> kept;
      for (const auto& [when, tag] : open) {
        if (when < now) continue;  // fired or cancelled already
        if (!rng.bernoulli(0.85)) {
          kept.emplace_back(when, tag);
          continue;
        }
        const bool hit = ls.dut.cancel_tag(tag);
        ASSERT_EQ(hit, ls.ref.cancel_tag(tag)) << "cancel tag " << tag;
        if (hit) {
          ++cancelled;
          cancelled_at.push_back(when);
        }
      }
      open = std::move(kept);
    } else if (kind == 8) {  // advance to or between cancelled times
      std::vector<double> ahead;
      // Near times only: a limit between far-future ones would drain everything.
      for (const double t : cancelled_at) {
        if (t >= now && t < now + 1e3) ahead.push_back(t);
      }
      std::sort(ahead.begin(), ahead.end());
      double limit = now + rng.uniform(0.0, 50.0);
      if (ahead.size() >= 2) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ahead.size()) - 2));
        limit = rng.bernoulli(0.5) ? ahead[i] : 0.5 * (ahead[i] + ahead[i + 1]);
      }
      ls.run_until(limit);
    } else {
      ls.step();
    }
    ls.check("after op");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The shape this episode claims: cancels outnumber fires.
  EXPECT_GT(cancelled, static_cast<int>(ls.dut.engine.fired()));
  ls.drain();
  ls.check("after drain");
}

TEST(EngineEquivalence, CancelHeavyLockStep) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_cancel_heavy_episode(seed, 400);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EngineEquivalence, SameInstantBurstsPreserveFifoOrder) {
  LockStep ls;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) ls.schedule_abs(static_cast<double>(round));
  }
  ls.drain();
  ls.check("after drain");
}

TEST(EngineEquivalence, ZeroDelayChainsAtCurrentInstant) {
  LockStep ls;
  // Tags divisible by 15 schedule a zero-delay child from inside their own
  // callback; both engines must interleave those identically.
  for (int i = 0; i < 120; ++i) ls.schedule_rel(0.0);
  ls.drain();
  ls.check("after drain");
}

// ---- EventId cancel-edge regressions (the latent hazard this PR fixes:
// stale handles must stay dead even after their arena slot is reused). ----

TEST(EngineCancelEdges, CancelFromWithinOwnCallbackReturnsFalse) {
  SimEngine engine;
  EventId self = 0;
  bool result = true;
  self = engine.schedule_at(1.0, [&] { result = engine.cancel(self); });
  engine.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(engine.fired(), 1u);
  // And it stays dead afterwards.
  EXPECT_FALSE(engine.cancel(self));
}

TEST(EngineCancelEdges, StaleIdDoesNotCancelSlotReuser) {
  SimEngine engine;
  int fired_a = 0, fired_b = 0;
  const EventId a = engine.schedule_at(1.0, [&] { ++fired_a; });
  engine.run();
  ASSERT_EQ(fired_a, 1);
  // B is free to reuse A's internal storage; A's handle must not reach it.
  const EventId b = engine.schedule_at(2.0, [&] { ++fired_b; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(engine.cancel(a));
  engine.run();
  EXPECT_EQ(fired_b, 1);
}

TEST(EngineCancelEdges, StaleIdAfterCancelDoesNotCancelSlotReuser) {
  SimEngine engine;
  int fired_b = 0;
  const EventId a = engine.schedule_at(1.0, [] {});
  EXPECT_TRUE(engine.cancel(a));
  const EventId b = engine.schedule_at(1.0, [&] { ++fired_b; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(engine.cancel(a));  // stale handle, slot likely reused by B
  engine.run();
  EXPECT_EQ(fired_b, 1);
}

TEST(EngineCancelEdges, CancelFromWithinCallbackPreventsPendingEvent) {
  SimEngine engine;
  int fired_victim = 0;
  const EventId victim = engine.schedule_at(2.0, [&] { ++fired_victim; });
  bool cancel_result = false;
  engine.schedule_at(1.0, [&] { cancel_result = engine.cancel(victim); });
  engine.run();
  EXPECT_TRUE(cancel_result);
  EXPECT_EQ(fired_victim, 0);
  EXPECT_EQ(engine.fired(), 1u);
}

TEST(EngineCancelEdges, CancelSiblingAtSameInstantFromCallback) {
  SimEngine engine;
  int fired_sibling = 0;
  EventId sibling = 0;
  bool cancel_result = false;
  engine.schedule_at(1.0, [&] { cancel_result = engine.cancel(sibling); });
  sibling = engine.schedule_at(1.0, [&] { ++fired_sibling; });
  engine.run();
  // The sibling was scheduled later, so the canceller fires first (FIFO) and
  // must be able to kill it even though both share the timestamp.
  EXPECT_TRUE(cancel_result);
  EXPECT_EQ(fired_sibling, 0);
}

TEST(EngineCancelEdges, HandlesStayUniqueAcrossHeavySlotReuse) {
  SimEngine engine;
  std::vector<EventId> seen;
  for (int i = 0; i < 2000; ++i) {
    const EventId id = engine.schedule_after(0.0, [] {});
    seen.push_back(id);
    if (i % 2 == 0) {
      engine.cancel(id);
    } else {
      engine.run();
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "EventIds recycled while stale handles may still be held";
}

}  // namespace
}  // namespace ones::sim
