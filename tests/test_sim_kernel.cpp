// The zero-allocation event kernel (sim/task.hpp, sim/engine.hpp):
//
//   * steady-state schedule/fire/cancel touches the allocator zero times
//     (proven with a counting replacement operator new),
//   * generation-checked handles stay safe no-ops across a million
//     slot-recycling schedule/cancel cycles, after their event fired, and
//     after the engine itself has been destroyed,
//   * and its firing order is *identical* to the frozen legacy kernel
//     (sim/legacy_engine.hpp) under randomized operation scripts that
//     stress ties, cancellations, timers, bursts, and sparse horizons, and
//     under fleet-shaped scripts of hundreds of timers on shared periods.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/strings.hpp"
#include "sim/engine.hpp"
#include "sim/legacy_engine.hpp"

namespace vdce {
namespace {

// ---- Task: the SBO callable ------------------------------------------------

TEST(SimTask, InlineStorageInvokesAndMoves) {
  int hits = 0;
  sim::Task t([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(t));
  t();
  EXPECT_EQ(hits, 1);

  sim::Task moved = std::move(t);
  EXPECT_FALSE(static_cast<bool>(t));
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(SimTask, FatCapturesNearTheInlineBudgetNeverAllocate) {
  struct Fat {
    double payload[14];  // 112 bytes; +8 for &seen stays inside the budget
  };
  Fat fat{};
  fat.payload[0] = 42.0;
  double seen = 0.0;
  const std::uint64_t before = test::allocation_count();
  {
    sim::Task t([fat, &seen] { seen = fat.payload[0]; });
    sim::Task moved = std::move(t);
    moved();
  }
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "constructing/moving/invoking/destroying a Task must not allocate";
  EXPECT_EQ(seen, 42.0);
}

TEST(SimTask, DestroysCapturedStateExactlyOnce) {
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    Probe(Probe&& other) noexcept : counter(other.counter) {
      other.counter = nullptr;
    }
    ~Probe() {
      if (counter) ++*counter;
    }
  };
  int destroyed = 0;
  {
    sim::Task t([p = Probe(&destroyed)] { (void)p; });
    sim::Task moved = std::move(t);
    moved();  // invoking does not destroy the closure
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

// ---- zero-allocation steady state ------------------------------------------
//
// The daemon-like steady state: a fixed population of periodic timers, each
// tick scheduling a one-shot follow-up and cancelling every other one.  The
// workload is strictly periodic, so once the arena, the timer list, and the
// pending heap are warm, the measured window repeats the exact occupancy
// pattern of the warm-up — and must not touch the allocator at all.

struct SteadyState {
  sim::Engine* engine = nullptr;
  std::uint64_t ticks = 0;
  std::uint64_t cancels = 0;
  sim::EventHandle last;
};

void steady_tick(SteadyState* s, double period) {
  ++s->ticks;
  // Schedule a follow-up half a period out; cancel every other one.  The
  // cancelled event stays queued (frozen kernel semantics) and is recycled
  // when its time comes up — exercising the cancel path every tick.
  sim::EventHandle h =
      s->engine->schedule(period * 0.5, [s] { ++s->ticks; });
  if (s->ticks % 2 == 0) {
    h.cancel();
    ++s->cancels;
  }
  s->last = h;
}

TEST(SimKernelAlloc, SteadyStateScheduleFireCancelIsAllocationFree) {
  sim::Engine engine;
  engine.reserve_events(4096);
  SteadyState state;
  state.engine = &engine;

  constexpr int kTimers = 96;
  const double periods[] = {0.25, 0.5, 1.0, 2.0};
  for (int i = 0; i < kTimers; ++i) {
    const double period = periods[i % 4];
    engine.every(period, [s = &state, period] { steady_tick(s, period); });
  }

  // Warm-up: several full rotations of the slowest period so arena slots,
  // timer slots, and the pending heap reach their plateau capacity.
  engine.run_until(64.0);
  const std::uint64_t warm_ticks = state.ticks;
  ASSERT_GT(warm_ticks, 10000u);
  const std::size_t warm_capacity = engine.arena_capacity();

  const std::uint64_t before = test::allocation_count();
  engine.run_until(192.0);
  const std::uint64_t after = test::allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/fire/cancel must not allocate";
  EXPECT_GT(state.ticks, warm_ticks * 2) << "the measured window did run";
  EXPECT_GT(state.cancels, 0u);
  EXPECT_EQ(engine.arena_capacity(), warm_capacity)
      << "the arena must not grow in the steady state";
}

// Timer churn on shared periods: every fourth tick of each timer stops its
// neighbour (whose pending tick usually waits mid-lane) and arms a
// replacement on the same period and phase.  The lanes' rings, the timer
// slots and the arena must all reach their plateau in the warm-up.
struct ChurnState {
  sim::Engine* engine = nullptr;
  std::vector<sim::TimerHandle> timers;
  std::vector<double> period;
  std::vector<double> phase;
  std::vector<std::uint64_t> ticks;  // per handle slot, across replacements
  std::uint64_t replaced = 0;
};

void churn_tick(ChurnState* s, std::size_t i);

void churn_arm(ChurnState* s, std::size_t i, double delay) {
  s->timers[i] = s->engine->every(
      s->period[i], [s, i] { churn_tick(s, i); }, delay);
}

void churn_tick(ChurnState* s, std::size_t i) {
  if (++s->ticks[i] % 4 != 0) return;
  // Neighbours share a period: slots pair up as (2k, 2k+1).
  const std::size_t j = i ^ 1u;
  s->timers[j].cancel();
  // The replacement keeps j's phase: its first tick lands on the instant
  // the stopped timer's next tick would have (a dyadic lattice, so exact).
  const double now = s->engine->now();
  const double p = s->period[j];
  double& next = s->phase[j];
  while (next <= now) next += p;
  churn_arm(s, j, next - now);
  ++s->replaced;
}

TEST(SimKernelAlloc, TimerChurnOnSharedPeriodsIsAllocationFree) {
  sim::Engine engine;
  engine.reserve_events(4096);
  constexpr std::size_t kTimers = 128;
  ChurnState state;
  state.engine = &engine;
  state.timers.resize(kTimers);
  state.ticks.assign(kTimers, 0);
  for (std::size_t i = 0; i < kTimers; ++i) {
    state.period.push_back((i / 2) % 2 == 0 ? 0.5 : 1.0);
    state.phase.push_back(static_cast<double>(i % 8) / 16.0);
    churn_arm(&state, i, state.phase[i]);
  }

  engine.run_until(64.0);
  const std::uint64_t warm_replaced = state.replaced;
  ASSERT_GT(warm_replaced, 1000u);
  const std::size_t warm_capacity = engine.arena_capacity();
  const std::size_t warm_timers = engine.timer_capacity();

  const std::uint64_t before = test::allocation_count();
  engine.run_until(192.0);
  const std::uint64_t after = test::allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "stopping a timer and arming another on its period must not "
         "allocate";
  EXPECT_GT(state.replaced, warm_replaced * 2) << "the measured window ran";
  EXPECT_EQ(engine.arena_capacity(), warm_capacity);
  EXPECT_EQ(engine.timer_capacity(), warm_timers)
      << "stopped timers' slots are recycled";
}

// ---- generation-checked handles --------------------------------------------

TEST(SimKernelHandles, CancelAndPendingAfterFireAreNoOps) {
  sim::Engine engine;
  int fired = 0;
  sim::EventHandle h = engine.schedule(1.0, [&fired] { ++fired; });
  EXPECT_TRUE(h.pending());
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // after fire: no-op
  h.cancel();  // repeated: still a no-op
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(engine.total_fired(), 1u);
}

TEST(SimKernelHandles, StaleHandleDoesNotCancelTheSlotsNewOccupant) {
  sim::Engine engine;
  int first = 0, second = 0;
  sim::EventHandle old = engine.schedule(1.0, [&first] { ++first; });
  old.cancel();
  engine.run();  // pops the cancelled entry: the slot joins the free list
  ASSERT_EQ(engine.arena_live(), 0u);
  // The next schedule recycles that slot under a bumped generation.
  sim::EventHandle fresh = engine.schedule(1.0, [&second] { ++second; });
  EXPECT_FALSE(old.pending());
  old.cancel();  // generation miss: must NOT kill `fresh`
  EXPECT_TRUE(fresh.pending());
  engine.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(SimKernelHandles, MillionScheduleCancelCyclesRecycleSlots) {
  sim::Engine engine;
  int fired = 0;
  sim::EventHandle first = engine.schedule(1.0, [&fired] { ++fired; });
  first.cancel();
  // A million schedule/cancel cycles in batches of 1024: draining between
  // batches pops the cancelled entries and recycles their slots, so each
  // slot is reused ~1000 times with a bumped generation every round.  The
  // arena must stay bounded by the batch size, and `first` (plus every
  // sampled stale handle) must stay dead no matter how often its slot is
  // reincarnated.
  for (int i = 0; i < 1'000'000; ++i) {
    sim::EventHandle h = engine.schedule(1.0, [&fired] { ++fired; });
    h.cancel();
    EXPECT_FALSE(h.pending());
    if ((i & 1023) == 1023) {
      engine.run_until(engine.now() + 2.0);
      if ((i & 0xffff) == 0xffff) {
        EXPECT_FALSE(first.pending());
      }
    }
  }
  engine.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.total_scheduled(), 1'000'001u);
  EXPECT_EQ(engine.arena_live(), 0u);
  EXPECT_LE(engine.arena_capacity(), 2048u)
      << "slot recycling must bound the arena by the in-flight count";
  first.cancel();  // still a safe no-op a million generations later
}

TEST(SimKernelHandles, HandlesOutliveTheEngine) {
  sim::EventHandle event;
  sim::TimerHandle timer;
  int fired = 0;
  {
    auto engine = std::make_unique<sim::Engine>();
    event = engine->schedule(5.0, [&fired] { ++fired; });
    timer = engine->every(1.0, [&fired] { ++fired; });
    EXPECT_TRUE(event.pending());
    EXPECT_TRUE(timer.active());
  }
  // The engine is gone; the anchor is nulled, so every operation degrades
  // to a safe no-op instead of touching freed memory.
  EXPECT_FALSE(event.pending());
  EXPECT_FALSE(timer.active());
  event.cancel();
  timer.cancel();
  EXPECT_EQ(fired, 0);
}

TEST(SimKernelHandles, DefaultConstructedHandlesAreInert) {
  sim::EventHandle event;
  sim::TimerHandle timer;
  EXPECT_FALSE(event.pending());
  EXPECT_FALSE(timer.active());
  event.cancel();
  timer.cancel();
}

// ---- timers -----------------------------------------------------------------

TEST(SimKernelTimers, OptionalInitialDelayDefaultsToOneFullPeriod) {
  sim::Engine engine;
  std::vector<double> fire_times;
  engine.every(2.0, [&] { fire_times.push_back(engine.now()); });
  engine.run_until(7.0);
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], 2.0);
  EXPECT_EQ(fire_times[1], 4.0);
  EXPECT_EQ(fire_times[2], 6.0);
}

TEST(SimKernelTimers, ExplicitInitialDelayOverridesThePeriod) {
  sim::Engine engine;
  std::vector<double> fire_times;
  engine.every(2.0, [&] { fire_times.push_back(engine.now()); }, 0.25);
  engine.run_until(5.0);
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], 0.25);
  EXPECT_EQ(fire_times[1], 2.25);
  EXPECT_EQ(fire_times[2], 4.25);
}

TEST(SimKernelTimers, ZeroInitialDelayFiresImmediately) {
  sim::Engine engine;
  int ticks = 0;
  sim::TimerHandle t = engine.every(1.0, [&ticks] { ++ticks; }, 0.0);
  engine.run_steps(1);
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(engine.now(), 0.0);
  t.cancel();
  engine.run_until(3.0);
  EXPECT_EQ(ticks, 1);
}

TEST(SimKernelTimers, TimerSlotIsRecycledAfterStop) {
  sim::Engine engine;
  for (int round = 0; round < 64; ++round) {
    int ticks = 0;
    sim::TimerHandle t = engine.every(0.5, [&ticks] { ++ticks; });
    engine.run_until(engine.now() + 2.0);
    t.cancel();
    engine.run_until(engine.now() + 2.0);  // pending tick drains
    EXPECT_EQ(ticks, 4) << "round " << round;
  }
  // All 64 timers reused a tiny pool of recycled timer slots.
  EXPECT_LE(engine.timer_capacity(), 4u);
}

// ---- firing-order differential: engine vs legacy -----------------------------
//
// A randomized operation script applied identically to the production
// engine and the frozen pre-redesign LegacyEngine.  Every callback appends
// "<id>@<time>" to a log; the two logs must be byte-identical.  Times are
// drawn on a coarse lattice so ties are common and the (time, seq)
// tiebreak — the property the engine must preserve exactly — is stressed
// hard.

struct ScriptOp {
  enum Kind { kOneShot, kCancelled, kCancelAt, kTimer, kTimerStopAt } kind;
  double at = 0.0;      ///< schedule time (offset) or timer period
  double arg = 0.0;     ///< cancel time / timer stop time / initial delay
  int target = -1;      ///< for kCancelAt / kTimerStopAt: victim op index
};

std::vector<ScriptOp> make_script(std::uint64_t seed, std::size_t ops,
                                  double lattice, double horizon) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, horizon);
  auto snap = [&](double t) {
    return lattice > 0.0 ? std::floor(t / lattice) * lattice : t;
  };
  std::vector<ScriptOp> script;
  std::vector<int> one_shots, timers;
  for (std::size_t i = 0; i < ops; ++i) {
    ScriptOp op;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
      case 3:
        op.kind = ScriptOp::kOneShot;
        op.at = snap(uniform(rng));
        one_shots.push_back(static_cast<int>(script.size()));
        break;
      case 4:
        op.kind = ScriptOp::kCancelled;  // cancelled before the run starts
        op.at = snap(uniform(rng));
        break;
      case 5:
        if (one_shots.empty()) continue;
        op.kind = ScriptOp::kCancelAt;
        op.at = snap(uniform(rng));
        op.target = one_shots[rng() % one_shots.size()];
        break;
      case 6:
        op.kind = ScriptOp::kTimer;
        op.at = snap(uniform(rng)) / 8.0 + (lattice > 0.0 ? lattice : 0.01);
        op.arg = rng() % 2 == 0 ? -1.0 : snap(uniform(rng)) / 4.0;
        timers.push_back(static_cast<int>(script.size()));
        break;
      default:
        if (timers.empty()) continue;
        op.kind = ScriptOp::kTimerStopAt;
        op.at = snap(uniform(rng));
        op.target = timers[rng() % timers.size()];
        break;
    }
    script.push_back(op);
  }
  return script;
}

/// Replay `script` on any engine type with schedule/every/run and
/// EventHandle-style cancel(); returns the firing log.
template <typename EngineT, typename EventHandleT, typename TimerHandleT>
std::string replay_script(EngineT& engine, const std::vector<ScriptOp>& script,
                          double horizon) {
  std::string log;
  auto fire = [&log, &engine](int id) {
    log += std::to_string(id);
    log += '@';
    log += common::format_double(engine.now(), 9);
    log += '\n';
  };
  std::vector<EventHandleT> events(script.size());
  std::vector<TimerHandleT> timers(script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    const ScriptOp& op = script[i];
    const int id = static_cast<int>(i);
    switch (op.kind) {
      case ScriptOp::kOneShot:
        events[i] = engine.schedule(op.at, [fire, id] { fire(id); });
        break;
      case ScriptOp::kCancelled:
        events[i] = engine.schedule(op.at, [fire, id] { fire(id); });
        events[i].cancel();
        break;
      case ScriptOp::kCancelAt:
        engine.schedule(op.at, [&events, t = op.target] {
          events[static_cast<std::size_t>(t)].cancel();
        });
        break;
      case ScriptOp::kTimer:
        if (op.arg < 0.0) {
          timers[i] = engine.every(op.at, [fire, id] { fire(id); });
        } else {
          timers[i] = engine.every(op.at, [fire, id] { fire(id); }, op.arg);
        }
        break;
      case ScriptOp::kTimerStopAt:
        engine.schedule(op.at, [&timers, t = op.target] {
          timers[static_cast<std::size_t>(t)].cancel();
        });
        break;
    }
  }
  engine.run_until(horizon);
  return log;
}

void expect_kernels_agree(std::uint64_t seed, std::size_t ops, double lattice,
                          double horizon) {
  const std::vector<ScriptOp> script =
      make_script(seed, ops, lattice, horizon);
  ASSERT_FALSE(script.empty());

  sim::Engine engine;
  sim::legacy::LegacyEngine legacy;

  const std::string a =
      replay_script<sim::Engine, sim::EventHandle, sim::TimerHandle>(
          engine, script, horizon);
  const std::string b =
      replay_script<sim::legacy::LegacyEngine, sim::legacy::LegacyEventHandle,
                    sim::legacy::LegacyTimerHandle>(legacy, script, horizon);

  ASSERT_FALSE(a.empty()) << "seed " << seed << ": nothing fired";
  EXPECT_EQ(a, b) << "seed " << seed << ": engine vs frozen legacy kernel";
  EXPECT_EQ(engine.now(), legacy.now());
}

class KernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelFuzz, TiedLatticeScriptFiresIdenticallyOnAllThreeKernels) {
  // Coarse lattice (0.125) over a 40 s horizon: dense, heavily tied.
  expect_kernels_agree(GetParam(), 1500, 0.125, 40.0);
}

TEST_P(KernelFuzz, ContinuousTimesAlsoAgree) {
  // No lattice: continuous timestamps, ties only from identical draws.
  expect_kernels_agree(GetParam() * 7919 + 1, 1200, 0.0, 25.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(KernelFuzzEdges, SingleInstantBurstPreservesSubmissionOrder) {
  // Everything at t=0: a pure seq-order test, with the whole population
  // tied on one timestamp.
  sim::Engine engine;
  sim::legacy::LegacyEngine legacy;
  std::string expected;
  for (int i = 0; i < 2000; ++i) expected += std::to_string(i) + ",";
  auto drive = [&expected](auto& kernel) {
    std::string log;
    for (int i = 0; i < 2000; ++i) {
      kernel.schedule(0.0, [&log, i] { log += std::to_string(i) + ","; });
    }
    kernel.run();
    EXPECT_EQ(log, expected);
  };
  drive(engine);
  drive(legacy);
}

TEST(KernelFuzzEdges, SparseHorizonKeepsExactOrder) {
  // A handful of events spread across nine decades of simulated time.
  expect_kernels_agree(99, 200, 0.0, 1e9);
}

TEST(KernelFuzzEdges, DrainAndRefillKeepsOrderAcrossResizes) {
  // Grow to thousands, drain to empty, grow again: every wave refills the
  // pending set from recycled arena slots.
  sim::Engine engine;
  sim::legacy::LegacyEngine legacy;
  std::string a, b;
  auto drive = [](auto& engine, std::string& log) {
    std::mt19937_64 rng(4242);
    std::uniform_real_distribution<double> jitter(0.0, 4.0);
    for (int wave = 0; wave < 6; ++wave) {
      const double base = engine.now();
      for (int i = 0; i < 3000; ++i) {
        const int id = wave * 3000 + i;
        engine.schedule(jitter(rng), [&log, id, &engine] {
          log += std::to_string(id) + "@" +
                 common::format_double(engine.now(), 9) + "\n";
        });
      }
      engine.run_until(base + 8.0);  // full drain between waves
    }
  };
  drive(engine, a);
  drive(legacy, b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---- lane differential: fleet-shaped timers ---------------------------------
//
// A fleet's daemons arm hundreds of timers on a few shared periods, so each
// of the engine's per-period FIFO lanes holds many pending re-arms at once.
// This script gives both kernels that shape: random lattice phases, cancels
// that land in the middle of a lane, ticks that stop their own timer or arm
// a new one on the same period, and one-shots landing exactly on tick
// instants (scheduled up front, and from inside a tick one period out, where
// they must fire before that timer's own re-arm).

template <typename EngineT, typename TimerHandleT>
class FleetScript {
 public:
  FleetScript(EngineT& engine, std::uint64_t seed)
      : engine_(engine), rng_(seed) {}

  std::string run(double horizon) {
    const double shared[] = {0.5, 1.0, 2.0};
    const std::size_t n_periods = 2 + rng_() % 2;
    for (int i = 0; i < 150; ++i) {
      const double period = shared[rng_() % n_periods];
      arm(period, lattice_phase(period));
    }
    for (int i = 0; i < 200; ++i) {
      const std::size_t id = rng_() % timers_.size();
      const auto nth = static_cast<double>(rng_() % 40);
      engine_.schedule(phase_[id] + nth * period_[id],
                       [this, id] { log('o', id); });
    }
    const auto slots = static_cast<std::uint64_t>(horizon / kLattice);
    for (int i = 0; i < 60; ++i) {
      const double at = kLattice * static_cast<double>(rng_() % slots);
      const std::size_t victim = rng_() % timers_.size();
      engine_.schedule(at, [this, victim] {
        log('x', victim);
        timers_[victim].cancel();
      });
    }
    engine_.run_until(horizon);
    return log_;
  }

 private:
  static constexpr double kLattice = 0.125;

  double lattice_phase(double period) {
    return kLattice *
           static_cast<double>(rng_() %
                               static_cast<std::uint64_t>(period / kLattice));
  }

  void arm(double period, double delay) {
    const std::size_t id = timers_.size();
    period_.push_back(period);
    phase_.push_back(engine_.now() + delay);
    timers_.push_back(engine_.every(period, [this, id] { tick(id); }, delay));
  }

  void tick(std::size_t id) {
    log('t', id);
    const double period = period_[id];
    switch (rng_() % 32) {
      case 0:  // stops itself
        timers_[id].cancel();
        break;
      case 1:  // stops itself; a new timer takes over on the same period
        timers_[id].cancel();
        arm(period, period);
        break;
      case 2:  // a new timer on the same period, at a lattice phase: the
      case 6:  // population grows, so rings grow with pending re-arms
      case 7:  // wrapped around them
        if (timers_.size() < 600) arm(period, lattice_phase(period));
        break;
      case 3:  // lands on this timer's next tick, ahead of its re-arm
        engine_.schedule(period, [this, id] { log('n', id); });
        break;
      case 4:  // lands on the current instant, behind every queued tie
        engine_.schedule(0.0, [this, id] { log('z', id); });
        break;
      case 5:  // stops a random timer, usually one queued mid-lane
        timers_[rng_() % timers_.size()].cancel();
        break;
      default:
        break;
    }
  }

  void log(char tag, std::size_t id) {
    log_ += tag;
    log_ += std::to_string(id);
    log_ += '@';
    log_ += common::format_double(engine_.now(), 9);
    log_ += '\n';
  }

  EngineT& engine_;
  std::mt19937_64 rng_;
  std::vector<TimerHandleT> timers_;
  std::vector<double> period_;
  std::vector<double> phase_;
  std::string log_;
};

class LaneFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LaneFuzz, SharedPeriodTimersFireIdenticallyOnBothKernels) {
  constexpr double kHorizon = 30.0;
  sim::Engine engine;
  sim::legacy::LegacyEngine legacy;
  const std::string a =
      FleetScript<sim::Engine, sim::TimerHandle>(engine, GetParam())
          .run(kHorizon);
  const std::string b =
      FleetScript<sim::legacy::LegacyEngine, sim::legacy::LegacyTimerHandle>(
          legacy, GetParam())
          .run(kHorizon);
  ASSERT_GT(a.size(), 50000u) << "the fleet did tick";
  EXPECT_EQ(a, b) << "seed " << GetParam()
                  << ": engine vs frozen legacy kernel";
  EXPECT_EQ(engine.total_scheduled(), legacy.total_scheduled());
  EXPECT_EQ(engine.pending_events(), legacy.pending_events());
  EXPECT_EQ(engine.max_queue_depth(), legacy.max_queue_depth())
      << "lane entries count toward the queue depth";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- throughput / arena accounting ------------------------------------------

TEST(SimKernelAccounting, WallClockAndArenaGaugesAreSane) {
  sim::Engine engine;
  EXPECT_EQ(engine.events_per_sec(), 0.0);
  EXPECT_EQ(engine.arena_high_water(), 0u);
  for (int i = 0; i < 1000; ++i) {
    engine.schedule(static_cast<double>(i) * 0.001, [] {});
  }
  EXPECT_EQ(engine.arena_live(), 1000u);
  EXPECT_GE(engine.arena_capacity(), 1000u);
  engine.run();
  EXPECT_EQ(engine.arena_live(), 0u);
  EXPECT_EQ(engine.arena_high_water(), 1000u);
  EXPECT_GT(engine.wall_seconds_in_run(), 0.0);
  EXPECT_GT(engine.events_per_sec(), 0.0);
}

}  // namespace
}  // namespace vdce
