// The repository benchmark: drives the real submit -> schedule -> execute ->
// report pipeline through VdceEnvironment's public API on three seeded
// workloads and prints end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1).  NOTES.md says why each workload exists and which layer
// metric should move which end-to-end metric.
//
//   perfbench --workload <fleet-steady|plan-wide|fleet-chaos> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A run repeats one episode (set-up, timed phase, checks) with the same
// generated inputs until --seconds have passed and reports medians over the
// episodes.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// human-readable report including the simulated-results digest, which must
// repeat exactly for a given seed.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "probes.hpp"
#include "scale/generate.hpp"
#include "vdce/environment.hpp"

namespace {

using namespace vdce;
using perfbench::host_now;

// ---------------------------------------------------------------------------
// Small helpers

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The highest percentile of a ladder that has at least ten samples beyond
/// it (the tail a sample of this size can resolve).
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};

double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(v.size()) * (100.0 - pct) / 100.0 >= 10.0) {
      t.pct = pct;
      break;
    }
  }
  t.value = quantile_sorted(v, t.pct / 100.0);
  return t;
}

double p50(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

/// FNV-1a over the simulated results.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) { u64(s.size()); bytes(s.data(), s.size()); }
};

std::uint64_t dropped_messages(const net::FabricStats& s) {
  return s.dropped_dst_down + s.dropped_src_down + s.dropped_unbound +
         s.dropped_injected;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Benchmark-owned spans: name, start, end, parent, plus the event and
// message counters read at the same boundaries.  Kept in memory and written
// out when the run ends.

struct Span {
  const char* name = "";
  int parent = -1;
  int episode = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t events = 0;  ///< engine events fired inside the span
  std::uint64_t msgs = 0;    ///< fabric messages sent inside the span
};

class Tracer {
 public:
  bool on = false;
  int episode = 0;
  VdceEnvironment* env = nullptr;  ///< counters source; null before bring-up

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.on) return;
      id_ = static_cast<int>(t_.spans_.size());
      Span s;
      s.name = name;
      s.parent = t_.current_;
      s.episode = t_.episode;
      env_ = t_.env;
      s.events = t_.events();
      s.msgs = t_.msgs();
      s.start = host_now();
      t_.spans_.push_back(s);
      t_.current_ = id_;
    }
    ~Scope() {
      if (id_ < 0) return;
      Span& s = t_.spans_[static_cast<std::size_t>(id_)];
      s.end = host_now();
      // Counters are read only while the environment that was current at
      // open is still current (it may be gone by now).
      s.events = t_.env == env_ && env_ ? t_.events() - s.events : 0;
      s.msgs = t_.env == env_ && env_ ? t_.msgs() - s.msgs : 0;
      t_.current_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    const VdceEnvironment* env_ = nullptr;
    int id_ = -1;
  };

  [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name within one episode: duration minus the part
  /// covered by its children.
  [[nodiscard]] std::map<std::string, double> self_times(int ep) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].episode != ep) continue;
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

 private:
  std::uint64_t events() const { return env ? env->engine().total_fired() : 0; }
  std::uint64_t msgs() const { return env ? env->fabric().stats().sent : 0; }

  std::vector<Span> spans_;
  int current_ = -1;
};

// ---------------------------------------------------------------------------
// Workload generation (the benchmark's own generator; the program only sees
// the generated grids and graphs).

enum class Kind { kFleetSteady, kPlanWide, kFleetChaos };

/// One open-loop submission.
struct Arrival {
  double at = 0.0;
  std::size_t tenant = 0;
  std::size_t tasks = 0;
  afg::Afg graph;
  RunOptions run;
};

constexpr std::size_t kTenants = 4;
constexpr double kArrivalRate = 1.0;  // apps per simulated second
/// Apps per fleet: 19 (fleet-steady) or 20 (fleet-chaos) times every
/// (shape, size) pair.  Both stay under 1000 completed apps, so the latency
/// tail (the highest percentile with at least ten samples beyond it) is
/// p95 with ~50 samples beyond, not p99 with ~10: over thirty seeds its
/// spread is ~5%, against ~12% for p99.  fleet-chaos completes ~91% of
/// its apps (budget rejections, failures, stuck submissions).
constexpr std::size_t kSteadyApps = 969;
constexpr std::size_t kChaosApps = 1020;
/// A fleet simulates the fixed window [0, span + kDrainBound], where span =
/// apps / kArrivalRate: drain() is bounded by the window's end, a
/// submission not terminal by then counts as failed (stuck), and a fleet
/// that drains early runs on to the window's end.  The fixed window keeps
/// the daemons' share of the work the same on every seed; when the last
/// app finishes after the last arrival varies with the seed by tens of
/// seconds.
constexpr double kDrainBound = 120.0;

// The grids are fixed testbeds: the seed varies the traffic, not the
// deployment, so seed-to-seed spread reflects the workload alone.
constexpr std::uint64_t kGridSeed = 1997;

scale::GridSpec fleet_grid() {
  scale::GridSpec g;
  g.sites = 16;
  g.hosts_per_site = 32;
  g.group_size = 8;
  g.seed = kGridSeed;
  return g;
}

scale::GridSpec plan_grid() {
  scale::GridSpec g;
  g.sites = 8;
  g.hosts_per_site = 32;
  g.group_size = 8;
  g.seed = kGridSeed;
  return g;
}

/// Total MFLOP of a generated graph (synthetic task names carry it).
double graph_mflop(const afg::Afg& g) {
  double total = 0.0;
  for (const afg::TaskNode& t : g.tasks()) {
    const std::size_t w = t.task_name.rfind(".w");
    if (w != std::string::npos) total += std::atof(t.task_name.c_str() + w + 2);
  }
  return total;
}

/// The fleet: every (shape, size) pair of {layered, fork-join, param-sweep}
/// x {8..24 tasks} apps / 51 times, shuffled by the seed, so each seed
/// submits the same total work in a different order.  Poisson arrivals at
/// kArrivalRate from kTenants tenants.  `count` truncates the list (the
/// traced probe of plan-wide uses a short prefix).
std::vector<Arrival> make_fleet(std::uint64_t seed, std::size_t apps,
                                bool chaos, std::size_t count) {
  const scale::WorkloadShape shapes[] = {scale::WorkloadShape::kLayered,
                                         scale::WorkloadShape::kForkJoin,
                                         scale::WorkloadShape::kParamSweep};
  std::vector<std::pair<int, std::size_t>> mix;
  for (std::size_t i = 0; i < apps; ++i) mix.emplace_back(i % 3, 8 + i % 17);
  common::Rng rng(derive(seed, 2));
  std::shuffle(mix.begin(), mix.end(), rng.engine());

  // Poisson arrivals conditioned on the span: the last app arrives at
  // apps / kArrivalRate on every seed, so every seed simulates the same
  // window.
  std::vector<double> at(apps);
  double sum = 0.0;
  for (double& t : at) t = sum += rng.exponential(1.0 / kArrivalRate);
  for (double& t : at) t *= static_cast<double>(apps) / kArrivalRate / sum;

  std::vector<Arrival> out;
  for (std::size_t i = 0; i < count && i < mix.size(); ++i) {
    Arrival a;
    a.at = at[i];
    a.tenant = rng.pick_index(kTenants);
    a.tasks = mix[i].second;
    scale::WorkloadSpec w;
    w.shape = shapes[mix[i].first];
    w.tasks = a.tasks;
    w.width = 4;
    w.min_mflop = 300.0;
    w.max_mflop = 900.0;
    w.seed = derive(seed, 100 + i);
    a.graph = scale::make_workload(w, "app" + std::to_string(i));
    a.run.real_kernels = false;
    if (chaos) {
      // A quarter of the apps carry a budget under dbc-time, a quarter a
      // deadline under dbc-cost (with a loose budget so the spend is
      // quoted).  Budgets straddle the quote, so some are rejected.
      const double work = graph_mflop(a.graph) / 100.0;  // G$ at list price
      if (i % 4 == 0) {
        static constexpr double kBudgetFactor[] = {0.9, 1.5, 3.0};
        a.run.sched.strategy = "dbc-time";
        a.run.budget = work * kBudgetFactor[(i / 4) % 3];
      } else if (i % 4 == 1) {
        a.run.sched.strategy = "dbc-cost";
        a.run.budget = work * 4.0;
        a.run.deadline = 10.0 + 0.02 * work;
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

/// Seeded FaultPlan over the arrival span: per 102 s one host
/// crash-and-reboot drawn from all hosts (servers and group leaders
/// included), per 1020 s one 15 s site partition and one 30 s window of 3%
/// message loss.
chaos::FaultPlan make_faults(std::uint64_t seed, std::size_t hosts,
                             std::size_t sites, double span) {
  common::Rng rng(derive(seed, 3));
  chaos::FaultPlan plan;
  plan.name("fleet-chaos").seed(derive(seed, 4));
  for (int i = 0; i < static_cast<int>(span / 102.0); ++i) {
    const auto host = static_cast<std::uint32_t>(rng.pick_index(hosts));
    plan.crash(common::HostId(host), rng.uniform(0.1 * span, 0.8 * span), 40.0);
  }
  for (int i = 0; i < static_cast<int>(span / 1020.0); ++i) {
    const auto a = static_cast<std::int64_t>(rng.pick_index(sites));
    auto b = static_cast<std::int64_t>(rng.pick_index(sites - 1));
    if (b >= a) ++b;
    plan.partition(a, b, rng.uniform(0.2 * span, 0.6 * span), 15.0);
    plan.loss(0.03, rng.uniform(0.2 * span, 0.6 * span), 30.0);
  }
  return plan;
}

/// plan-wide requests: every (shape, size) pair of {random DAG, layered,
/// fork-join} x {250, 500, 1000, 2000, 4000} tasks three times (45
/// requests, enough for a p75 tail), shuffled by the seed.
std::vector<afg::Afg> make_plan_graphs(std::uint64_t seed) {
  const scale::WorkloadShape shapes[] = {scale::WorkloadShape::kRandomDag,
                                         scale::WorkloadShape::kLayered,
                                         scale::WorkloadShape::kForkJoin};
  const std::size_t sizes[] = {250, 500, 1000, 2000, 4000};
  std::vector<std::pair<int, std::size_t>> mix;
  for (int copy = 0; copy < 3; ++copy) {
    for (int s = 0; s < 3; ++s) {
      for (std::size_t n : sizes) mix.emplace_back(s, n);
    }
  }
  common::Rng rng(derive(seed, 2));
  std::shuffle(mix.begin(), mix.end(), rng.engine());
  std::vector<afg::Afg> out;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    scale::WorkloadSpec w;
    w.shape = shapes[mix[i].first];
    w.tasks = mix[i].second;
    w.width = mix[i].first == 2 ? 32 : 48;
    w.seed = derive(seed, 100 + i);
    out.push_back(scale::make_workload(w, "plan" + std::to_string(i)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// One episode: set-up, timed phase, checks (and, when traced, a probe of
// the public calls the timed phase does not make).

struct Episode {
  bool traced = false;
  // set-up, host seconds
  double grid_s = 0.0, workload_s = 0.0, bring_up_s = 0.0, setup_s = 0.0;
  // timed phase
  double run_s = 0.0, ref_s = 0.0, cpu_s = 0.0;
  std::uint64_t allocs = 0, tasks = 0, events = 0, msgs = 0, dropped = 0;
  // simulated results
  std::vector<double> latency;        ///< submit->terminal / request->table
  std::vector<double> submit_us;      ///< host, per submit_application()
  std::vector<double> schedule_ms;    ///< host, per schedule()
  std::vector<double> plan_len;       ///< sim, predicted schedule length
  std::vector<double> app_setup;      ///< sim, report setup_time()
  std::size_t attempted = 0;
  std::size_t not_ok = 0;             ///< failed, refused or stuck
  std::size_t stuck = 0;
  std::string stuck_apps;             ///< " app<i> (tenant <t>)" per stuck app
  std::size_t unexpected = 0;         ///< API errors outside the workload model
  std::uint64_t deferred = 0, peak_in_flight = 0, double_booked = 0;
  std::uint64_t recoveries = 0, reschedules = 0;
  std::uint64_t faults = 0, chaos_dropped = 0, budget_rejections = 0, alerts = 0;
  double spend = 0.0;
  std::uint64_t spend_tasks = 0;
  double max_lag = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> violations;
};

class Bench {
 public:
  Bench(Kind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {}

  Episode run_episode(bool traced, int index) {
    tracer_.on = traced;
    tracer_.episode = index;
    tracer_.env = nullptr;
    Episode ep;
    ep.traced = traced;
    auto root = tracer_.scope("episode");
    if (kind_ == Kind::kPlanWide) {
      plan_episode(ep);
    } else {
      fleet_episode(ep);
    }
    return ep;
  }

  Tracer& tracer() { return tracer_; }
  /// fleet-chaos: the generated FaultPlan in its text DSL (the reproducer).
  [[nodiscard]] const std::string& fault_dsl() const { return fault_dsl_; }
  /// Traced runs: the program's metrics() registry (JSONL) at the end of the
  /// last traced episode's timed phase.
  [[nodiscard]] const std::string& registry_jsonl() const {
    return registry_jsonl_;
  }

 private:
  std::size_t fleet_apps() const {
    return kind_ == Kind::kFleetChaos ? kChaosApps : kSteadyApps;
  }
  double fleet_span() const {
    return static_cast<double>(fleet_apps()) / kArrivalRate;
  }

  EnvironmentOptions env_options(bool traced) const {
    EnvironmentOptions o;
    o.runtime.seed = derive(seed_, 5);
    o.metrics.enabled = traced;
    // The flight recorder still records; only its post-mortem file dump
    // (file I/O in the middle of a timed phase) is off.
    o.flight.postmortem_path.clear();
    // Enough admission slots that the arrival rate, not the admission
    // bound, decides whether a backlog forms.
    o.tenancy.max_in_flight = 64;
    if (kind_ != Kind::kPlanWide) o.sync_timeout = kDrainBound;
    if (kind_ == Kind::kFleetChaos) {
      o.health.enabled = true;
    }
    return o;
  }

  /// Grid + environment bring-up, timed into `ep`.
  std::unique_ptr<VdceEnvironment> bring_up(Episode& ep,
                                            const scale::GridSpec& grid,
                                            EnvironmentOptions options) {
    net::Topology topo;
    {
      auto s = tracer_.scope("make_grid");
      const double t0 = host_now();
      topo = scale::make_grid(grid);
      ep.grid_s = host_now() - t0;
    }
    if (kind_ == Kind::kFleetChaos) {
      options.faults =
          make_faults(seed_, topo.host_count(), grid.sites, fleet_span());
      fault_dsl_ = options.faults.write();
    }
    auto s = tracer_.scope("bring_up");
    const double t0 = host_now();
    auto env = std::make_unique<VdceEnvironment>(std::move(topo), options);
    env->engine().reserve_events(env->topology().host_count() * 8);
    if (common::Status up = env->try_bring_up(); !up.ok()) {
      ep.violations.push_back("bring-up failed: " + up.error().to_string());
      return nullptr;
    }
    ep.bring_up_s = host_now() - t0;
    tracer_.env = env.get();
    return env;
  }

  std::vector<Session> make_accounts(Episode& ep, VdceEnvironment& env,
                                     std::size_t tenants) {
    auto s = tracer_.scope("accounts");
    std::vector<Session> sessions;
    for (std::size_t t = 0; t < tenants; ++t) {
      const std::string user = "tenant" + std::to_string(t);
      if (common::Status added = env.try_add_user(user, "pw"); !added.ok()) {
        ep.violations.push_back("add_user: " + added.error().to_string());
        return {};
      }
      // Tenants log in at different sites, so several Site Managers
      // coordinate concurrently.
      const common::SiteId site(static_cast<std::uint32_t>(
          t * env.sites().size() / tenants));
      auto session = env.login(site, user, "pw");
      if (!session) {
        ep.violations.push_back("login: " + session.error().to_string());
        return {};
      }
      sessions.push_back(*session);
    }
    return sessions;
  }

  /// Timed-phase boundaries: counters are read here; host time is summed
  /// over the chunks passed to timed().
  void begin_timed(Episode& ep, VdceEnvironment& env) {
    ref_time_ = ref_.run_slice();
    ref_slices_ = 1;
    ep.events = env.engine().total_fired();
    ep.msgs = env.fabric().stats().sent;
    ep.allocs = perfbench::alloc_count();
  }

  void end_timed(Episode& ep, VdceEnvironment& env) {
    ep.allocs = perfbench::alloc_count() - ep.allocs;
    ep.events = env.engine().total_fired() - ep.events;
    ep.msgs = env.fabric().stats().sent - ep.msgs;
    // Host seconds of one whole reference unit, from the slices.
    ep.ref_s = ref_time_ / static_cast<double>(ref_slices_) *
               static_cast<double>(perfbench::RefKernel::kSlicesPerUnit);
  }

  /// Time one chunk of the timed phase, then run a reference slice, so the
  /// reference samples the host's speed next to every chunk of work.
  template <typename F>
  void timed(Episode& ep, F&& work) {
    const double c0 = perfbench::cpu_now();
    const double t0 = host_now();
    work();
    ep.run_s += host_now() - t0;
    ep.cpu_s += perfbench::cpu_now() - c0;
    ref_time_ += ref_.run_slice();
    ++ref_slices_;
  }

  // --- fleets --------------------------------------------------------------

  void fleet_episode(Episode& ep) {
    const bool chaos = kind_ == Kind::kFleetChaos;
    const double setup0 = host_now();
    std::optional<Tracer::Scope> setup;
    setup.emplace(tracer_, "setup");
    auto env = bring_up(ep, fleet_grid(), env_options(tracer_.on));
    if (!env) return;
    std::vector<Arrival> fleet;
    {
      auto s = tracer_.scope("make_workload");
      const double t0 = host_now();
      fleet = make_fleet(seed_, fleet_apps(), chaos, fleet_apps());
      ep.workload_s = host_now() - t0;
    }
    std::vector<Session> sessions = make_accounts(ep, *env, kTenants);
    if (sessions.empty()) return;
    setup.reset();
    ep.setup_s = host_now() - setup0;

    ep.submit_us.reserve(fleet.size());
    std::vector<std::optional<AppHandle>> handles(fleet.size());
    std::vector<common::Expected<runtime::ExecutionReport>> reports;
    reports.reserve(fleet.size());
    {
      auto phase = tracer_.scope("timed");
      begin_timed(ep, *env);
      drive_fleet(ep, *env, fleet, sessions, handles, reports);
      end_timed(ep, *env);
    }
    check_fleet(ep, *env, fleet, handles, reports);
    if (tracer_.on) {
      registry_jsonl_ = env->metrics().to_jsonl();
      probe_schedule(ep, *env, fleet, sessions);
    }
    tracer_.env = nullptr;
  }

  /// The open loop: advance simulated time to each arrival, submit, then
  /// drain and fetch every report.
  void drive_fleet(Episode& ep, VdceEnvironment& env,
                   const std::vector<Arrival>& fleet,
                   const std::vector<Session>& sessions,
                   std::vector<std::optional<AppHandle>>& handles,
                   std::vector<common::Expected<runtime::ExecutionReport>>&
                       reports) {
    // Reference slices every kChunk arrivals, and after drain and report.
    constexpr std::size_t kChunk = 16;
    for (std::size_t c = 0; c < fleet.size(); c += kChunk) {
      timed(ep, [&] {
        for (std::size_t i = c; i < std::min(c + kChunk, fleet.size()); ++i) {
          const Arrival& a = fleet[i];
          if (a.at > env.now()) {
            // Advance to the arrival instant itself: run_for(a.at - now)
            // can land a rounding step short of or past it.
            auto s = tracer_.scope("run_for");
            env.engine().run_until(a.at);
          }
          ep.max_lag = std::max(ep.max_lag, env.now() - a.at);
          auto s = tracer_.scope("submit");
          const double t0 = host_now();
          auto h = env.submit_application(a.graph, sessions[a.tenant], a.run);
          ep.submit_us.push_back(1e6 * (host_now() - t0));
          ++ep.attempted;
          ep.tasks += a.tasks;
          if (h) handles[i] = *h;
        }
      });
    }
    common::Status drained;
    timed(ep, [&] {
      {
        auto s = tracer_.scope("drain");
        drained = env.drain();
      }
      if (env.now() < fleet_span() + kDrainBound) {
        auto s = tracer_.scope("run_for");
        env.run_for(fleet_span() + kDrainBound - env.now());
      }
    });
    if (!drained.ok() && drained.error().code != common::ErrorCode::kTimeout) {
      ++ep.unexpected;
      ep.violations.push_back("drain: " + drained.error().to_string());
    }
    timed(ep, [&] {
      for (const std::optional<AppHandle>& h : handles) {
        auto s = tracer_.scope("report");
        if (h) {
          reports.push_back(env.report(*h));
        } else {
          reports.push_back(common::Error{common::ErrorCode::kInternal,
                                          "submission refused"});
        }
      }
    });
  }

  void check_fleet(Episode& ep, VdceEnvironment& env,
                   const std::vector<Arrival>& fleet,
                   const std::vector<std::optional<AppHandle>>& handles,
                   const std::vector<common::Expected<runtime::ExecutionReport>>&
                       reports) {
    const bool chaos = kind_ == Kind::kFleetChaos;
    Digest d;
    struct Claim {
      std::uint32_t host;
      std::size_t app;
      double start, end;
      bool dbc;  ///< placed by a dbc-* strategy
    };
    std::vector<Claim> claims;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      d.u64(i);
      if (!handles[i]) {
        // submit_application() refused the app: never expected here.
        ++ep.unexpected;
        ++ep.not_ok;
        ep.violations.push_back("submit refused: app" + std::to_string(i));
        d.str("refused");
        continue;
      }
      const auto& r = reports[i];
      if (!r) {
        const common::ErrorCode code = r.error().code;
        if (code == common::ErrorCode::kInvalidArgument &&
            r.error().message.find("still in flight") != std::string::npos) {
          ++ep.stuck;
          ep.stuck_apps += " app" + std::to_string(i) + " (tenant " +
                           std::to_string(fleet[i].tenant) + ")";
          d.str("stuck");
        } else {
          if (code == common::ErrorCode::kBudgetExceeded) ++ep.budget_rejections;
          d.str(std::string("error:") + common::to_string(code));
        }
        ++ep.not_ok;
        continue;
      }
      d.str(r->success ? "ok" : "failed");
      d.f64(r->completed);
      for (const runtime::TaskOutcome& o : r->outcomes) d.u64(o.host.value());
      ep.recoveries += r->recoveries.size();
      ep.reschedules += static_cast<std::uint64_t>(r->reschedules);
      if (!r->success) {
        ++ep.not_ok;
        continue;
      }
      ep.latency.push_back(r->completed - r->enqueued);
      ep.app_setup.push_back(r->setup_time());
      if (r->budget > 0.0) {
        if (!r->within_budget()) {
          ep.violations.push_back("app" + std::to_string(i) +
                                  " spent over its budget");
        }
        ep.spend += r->spend();
        ep.spend_tasks += fleet[i].tasks;
      }
      for (const runtime::TaskOutcome& o : r->outcomes) {
        claims.push_back({o.host.value(), i, o.started, o.finished,
                          fleet[i].run.sched.strategy.rfind("dbc-", 0) == 0});
      }
    }
    ep.digest = d.h;

    if (!chaos && ep.not_ok > 0) {
      ep.unexpected = ep.not_ok;
      ep.violations.push_back(std::to_string(ep.not_ok) +
                              " fleet-steady submissions did not succeed");
    }
    if (ep.max_lag != 0.0) {
      ep.violations.push_back("open-loop arrival lag " + num(ep.max_lag) + " s");
    }
    // No host double-booked across apps (open intervals: shared endpoints
    // are fine).
    std::sort(claims.begin(), claims.end(), [](const Claim& a, const Claim& b) {
      return a.host != b.host ? a.host < b.host : a.start < b.start;
    });
    // The dbc-* strategies ignore the hosts concurrent apps hold (the
    // program's own ReservationTable counts these acquire conflicts), a
    // known defect that NOTES.md records: overlaps involving a dbc-* app are
    // counted in tenancy.double_booked; any other overlap fails the run.
    std::size_t reach = 0;  // the claim on this host that ends last so far
    for (std::size_t i = 1; i < claims.size(); ++i) {
      const Claim& c = claims[i];
      if (c.host != claims[reach].host) {
        reach = i;
        continue;
      }
      const Claim& p = claims[reach];
      if (c.end > p.end) reach = i;
      if (c.app == p.app || c.start >= p.end) continue;
      ++ep.double_booked;
      if (!p.dbc && !c.dbc) {
        ep.violations.push_back(
            "host " + std::to_string(c.host) + " double-booked: app" +
            std::to_string(p.app) + " [" + num(p.start) + ", " + num(p.end) +
            "] and app" + std::to_string(c.app) + " [" + num(c.start) + ", " +
            num(c.end) + "]");
      }
    }
    if (!chaos && env.core().reservations().conflicts() != 0) {
      ep.violations.push_back("reservation table counted acquire conflicts");
    }

    const tenancy::TenancyStats& ts = env.tenancy_stats();
    ep.deferred = ts.deferred;
    ep.peak_in_flight = ts.peak_in_flight;
    ep.dropped = dropped_messages(env.fabric().stats());
    if (const chaos::ChaosInjector* inj = env.chaos()) {
      ep.faults = inj->faults_injected();
      ep.chaos_dropped = inj->messages_dropped();
    }
    ep.alerts = env.health().alerts().size();
  }

  /// Traced runs only: time schedule() on the drained fleet environment for
  /// a prefix of the fleet's apps, so the scheduler's per-call host cost at
  /// fleet app sizes is measured on the fleets too.
  void probe_schedule(Episode& ep, VdceEnvironment& env,
                      const std::vector<Arrival>& fleet,
                      const std::vector<Session>& sessions) {
    auto probe = tracer_.scope("probe");
    for (std::size_t i = 0; i < 40 && i < fleet.size(); ++i) {
      auto s = tracer_.scope("schedule");
      const double t0 = host_now();
      auto table = env.schedule(fleet[i].graph, sessions[fleet[i].tenant],
                                fleet[i].run.sched);
      const double dt = host_now() - t0;
      if (!table) continue;  // a fault may still hold the session's site
      ep.schedule_ms.push_back(1e3 * dt);
      ep.plan_len.push_back(table->schedule_length);
    }
  }

  // --- plan-wide -----------------------------------------------------------

  void plan_episode(Episode& ep) {
    const double setup0 = host_now();
    std::optional<Tracer::Scope> setup;
    setup.emplace(tracer_, "setup");
    auto env = bring_up(ep, plan_grid(), env_options(tracer_.on));
    if (!env) return;
    std::vector<afg::Afg> graphs;
    {
      auto s = tracer_.scope("make_workload");
      const double t0 = host_now();
      graphs = make_plan_graphs(seed_);
      ep.workload_s = host_now() - t0;
    }
    std::vector<Session> sessions = make_accounts(ep, *env, 1);
    if (sessions.empty()) return;
    setup.reset();
    ep.setup_s = host_now() - setup0;

    std::vector<common::Expected<sched::ResourceAllocationTable>> tables;
    tables.reserve(graphs.size());
    ep.schedule_ms.reserve(graphs.size());
    ep.latency.reserve(graphs.size());
    {
      auto phase = tracer_.scope("timed");
      begin_timed(ep, *env);
      // Closed loop: one caller, next request only after the table arrives.
      for (const afg::Afg& g : graphs) {
        timed(ep, [&] {
          auto s = tracer_.scope("schedule");
          const double sim0 = env->now();
          const double t0 = host_now();
          tables.push_back(env->schedule(g, sessions[0]));
          ep.schedule_ms.push_back(1e3 * (host_now() - t0));
          ep.latency.push_back(env->now() - sim0);
          ++ep.attempted;
          ep.tasks += g.task_count();
        });
      }
      end_timed(ep, *env);
    }

    Digest d;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      d.u64(i);
      const auto& t = tables[i];
      if (!t) {
        ++ep.unexpected;
        ++ep.not_ok;
        ep.violations.push_back("schedule plan" + std::to_string(i) + ": " +
                                t.error().to_string());
        d.str(common::to_string(t.error().code));
        continue;
      }
      d.f64(t->schedule_length);
      ep.plan_len.push_back(t->schedule_length);
      std::vector<int> seen(graphs[i].task_count(), 0);
      for (const sched::Assignment& a : t->assignments) {
        d.u64(a.task.value());
        for (common::HostId h : a.hosts) d.u64(h.value());
        if (a.task.value() < seen.size()) ++seen[a.task.value()];
        if (a.hosts.empty() || a.hosts.front().value() >= env->hosts().size()) {
          ep.violations.push_back("plan" + std::to_string(i) +
                                  " placed a task on no valid host");
        }
      }
      if (std::any_of(seen.begin(), seen.end(), [](int c) { return c != 1; })) {
        ep.violations.push_back("plan" + std::to_string(i) +
                                " does not assign every task exactly once");
      }
    }
    ep.digest = d.h;
    ep.dropped = dropped_messages(env->fabric().stats());
    if (tracer_.on) {
      registry_jsonl_ = env->metrics().to_jsonl();
      probe_submit(ep, *env, sessions[0]);
    }
    tracer_.env = nullptr;
  }

  /// Traced runs only: a short open-loop fleet on the plan-wide grid, so
  /// the submission path's per-layer metrics are measured here too.
  void probe_submit(Episode& ep, VdceEnvironment& env, const Session& session) {
    auto probe = tracer_.scope("probe");
    std::vector<Arrival> fleet = make_fleet(seed_, kSteadyApps, false, 16);
    const double base = env.now();
    std::vector<AppHandle> handles;
    for (const Arrival& a : fleet) {
      if (base + a.at > env.now()) {
        auto s = tracer_.scope("run_for");
        env.engine().run_until(base + a.at);
      }
      auto s = tracer_.scope("submit");
      const double t0 = host_now();
      auto h = env.submit_application(a.graph, session, a.run);
      ep.submit_us.push_back(1e6 * (host_now() - t0));
      if (h) handles.push_back(*h);
    }
    {
      auto s = tracer_.scope("drain");
      (void)env.drain();
    }
    for (AppHandle h : handles) {
      auto s = tracer_.scope("report");
      auto r = env.report(h);
      if (r && r->success) ep.app_setup.push_back(r->setup_time());
    }
  }

  Kind kind_;
  std::uint64_t seed_;
  Tracer tracer_;
  std::string fault_dsl_;
  std::string registry_jsonl_;
  perfbench::RefKernel ref_;
  double ref_time_ = 0.0;
  std::size_t ref_slices_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting

/// The reference unit's host time on the 4-core Xeon VM the benchmark was
/// tuned on; setup_s is expressed in seconds of that machine.
constexpr double kRefNominalS = 0.012;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

template <typename F>
double med(const std::vector<const Episode*>& eps, F f) {
  std::vector<double> v;
  for (const Episode* e : eps) v.push_back(f(*e));
  return p50(std::move(v));
}

std::vector<Metric> end_to_end(const std::vector<const Episode*>& eps,
                               const Episode& first, Tail* tail) {
  std::vector<Metric> m;
  // Set-up host time rescaled to a machine whose reference kernel takes
  // kRefNominalS, so host drift between runs cancels (raw: host.setup_s).
  m.push_back({"setup_s",
               med(eps, [](const Episode& e) { return e.setup_s / e.ref_s; }) *
                   kRefNominalS,
               "s"});
  m.push_back({"run_ref",
               med(eps, [](const Episode& e) { return e.run_s / e.ref_s; }),
               "ref"});
  m.push_back({"peak_rss_mb", perfbench::peak_rss_mb(), "MB"});
  m.push_back({"allocs_per_task",
               static_cast<double>(first.allocs) /
                   static_cast<double>(std::max<std::uint64_t>(first.tasks, 1)),
               "count"});
  m.push_back({"latency_p50_s", p50(first.latency), "s"});
  *tail = tail_of(first.latency);
  m.push_back({"latency_tail_s", tail->value, "s"});
  return m;
}

std::vector<Metric> per_layer(const std::vector<const Episode*>& traced,
                              const std::vector<const Episode*>& plain,
                              const Tracer& tracer,
                              const std::vector<int>& traced_ids) {
  const Episode& f = *traced.front();
  const double tasks = static_cast<double>(std::max<std::uint64_t>(f.tasks, 1));
  auto host = [&](auto fn) { return med(traced, fn); };
  std::vector<Metric> m;
  m.push_back({"scale.grid_s", host([](const Episode& e) { return e.grid_s; }), "s"});
  m.push_back({"scale.workload_s", host([](const Episode& e) { return e.workload_s; }), "s"});
  m.push_back({"vdce.bring_up_s", host([](const Episode& e) { return e.bring_up_s; }), "s"});
  m.push_back({"sim.events", static_cast<double>(f.events), "count"});
  m.push_back({"sim.events_per_task", static_cast<double>(f.events) / tasks, "count"});
  m.push_back({"sim.ns_per_event",
               host([](const Episode& e) {
                 return 1e9 * e.run_s / static_cast<double>(std::max<std::uint64_t>(e.events, 1));
               }),
               "ns"});
  m.push_back({"net.msgs_per_task", static_cast<double>(f.msgs) / tasks, "count"});
  m.push_back({"net.dropped", static_cast<double>(f.dropped), "count"});
  m.push_back({"sched.schedule_ms_p50", host([](const Episode& e) { return p50(e.schedule_ms); }), "ms"});
  m.push_back({"sched.schedule_ms_tail",
               host([](const Episode& e) { return tail_of(e.schedule_ms).value; }), "ms"});
  m.push_back({"sched.plan_len_p50_s", p50(f.plan_len), "s"});
  m.push_back({"tenancy.submit_us_p50", host([](const Episode& e) { return p50(e.submit_us); }), "us"});
  m.push_back({"tenancy.deferred", static_cast<double>(f.deferred), "count"});
  m.push_back({"tenancy.peak_in_flight", static_cast<double>(f.peak_in_flight), "count"});
  m.push_back({"tenancy.double_booked", static_cast<double>(f.double_booked), "count"});
  m.push_back({"runtime.recoveries", static_cast<double>(f.recoveries), "count"});
  m.push_back({"runtime.reschedules", static_cast<double>(f.reschedules), "count"});
  m.push_back({"runtime.setup_p50_s", p50(f.app_setup), "s"});
  m.push_back({"chaos.faults_fired", static_cast<double>(f.faults), "count"});
  m.push_back({"chaos.msgs_dropped", static_cast<double>(f.chaos_dropped), "count"});
  m.push_back({"econ.budget_rejections", static_cast<double>(f.budget_rejections), "count"});
  m.push_back({"econ.spend_per_task",
               f.spend_tasks ? f.spend / static_cast<double>(f.spend_tasks) : 0.0, "Gdollar"});
  m.push_back({"obs.health_alerts", static_cast<double>(f.alerts), "count"});
  m.push_back({"fail_frac",
               static_cast<double>(f.not_ok) /
                   static_cast<double>(std::max<std::size_t>(f.attempted, 1)),
               "fraction"});
  m.push_back({"host.setup_s", host([](const Episode& e) { return e.setup_s; }), "s"});
  m.push_back({"host.run_s", host([](const Episode& e) { return e.run_s; }), "s"});
  m.push_back({"host.ref_s", host([](const Episode& e) { return e.ref_s; }), "s"});
  m.push_back({"host.cpu_s", host([](const Episode& e) { return e.cpu_s; }), "s"});
  for (const char* call : {"submit", "run_for", "drain", "schedule", "report"}) {
    std::vector<double> v;
    for (int id : traced_ids) {
      const auto self = tracer.self_times(id);
      auto it = self.find(call);
      v.push_back(it == self.end() ? 0.0 : it->second);
    }
    m.push_back({std::string("span.") + call + ".self_s", p50(std::move(v)), "s"});
  }
  const double ref_traced = med(traced, [](const Episode& e) { return e.run_s / e.ref_s; });
  const double ref_plain = med(plain, [](const Episode& e) { return e.run_s / e.ref_s; });
  m.push_back({"obs.trace_overhead", ref_traced / ref_plain - 1.0, "fraction"});
  return m;
}

void write_trace(const std::string& path, const Tracer& tracer,
                 const std::vector<Metric>& metrics,
                 const std::string& registry_jsonl) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"metrics\": %s,\n\"registry\": [\n", metrics_json(metrics).c_str());
  // One JSON object per registry line.
  std::string line;
  bool first = true;
  for (char c : registry_jsonl) {
    if (c != '\n') {
      line += c;
      continue;
    }
    if (!line.empty()) std::fprintf(f, "%s%s", first ? "" : ",\n", line.c_str());
    first = false;
    line.clear();
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"episode\": %d, "
                 "\"start\": %s, \"end\": %s, \"events\": %llu, \"msgs\": %llu}%s\n",
                 i, s.name, s.parent, s.episode, num(s.start).c_str(),
                 num(s.end).c_str(), static_cast<unsigned long long>(s.events),
                 static_cast<unsigned long long>(s.msgs),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet-steady|plan-wide|fleet-chaos> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  Kind kind;
  if (workload == "fleet-steady") {
    kind = Kind::kFleetSteady;
  } else if (workload == "plan-wide") {
    kind = Kind::kPlanWide;
  } else if (workload == "fleet-chaos") {
    kind = Kind::kFleetChaos;
  } else {
    return usage();
  }
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();

  Bench bench(kind, seed);
  // Episodes repeat the same inputs until the time is up.  A traced run
  // alternates untraced and traced episodes; the difference between the
  // two is the tracing overhead.
  const std::size_t min_episodes = trace ? 4 : 3;
  std::vector<Episode> episodes;
  const double t0 = host_now();
  while (episodes.size() < min_episodes || host_now() - t0 < seconds) {
    const bool traced = trace == 1 && episodes.size() % 2 == 1;
    episodes.push_back(bench.run_episode(traced, static_cast<int>(episodes.size())));
    if (!episodes.back().violations.empty() && episodes.back().tasks == 0) break;
  }

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::vector<const Episode*> plain, traced;
  std::vector<int> traced_ids;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& e = episodes[i];
    attempted += e.attempted;
    failed += e.unexpected;
    for (std::size_t k = 0; k < e.violations.size() && k < 5; ++k) {
      std::printf("violation (episode %zu): %s\n", i, e.violations[k].c_str());
    }
    if (!e.violations.empty()) correct = false;
    if (e.digest != episodes.front().digest) {
      std::printf("violation: episode %zu digest %016llx differs from episode 0\n",
                  i, static_cast<unsigned long long>(e.digest));
      correct = false;
    }
    (e.traced ? traced : plain).push_back(&e);
    if (e.traced) traced_ids.push_back(static_cast<int>(i));
  }
  const Episode& first = episodes.front();
  std::printf("workload %s seed %llu: %zu episodes (%zu traced), %llu tasks each\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              episodes.size(), traced.size(),
              static_cast<unsigned long long>(first.tasks));
  std::printf("digest %016llx\n", static_cast<unsigned long long>(first.digest));
  std::printf("fail_frac %s (%zu of %zu not ok, %zu stuck at the %g s bound)\n",
              num(static_cast<double>(first.not_ok) /
                  static_cast<double>(std::max<std::size_t>(first.attempted, 1)))
                  .c_str(),
              first.not_ok, first.attempted, first.stuck,
              kind == Kind::kPlanWide ? 0.0 : kDrainBound);

  Tail tail;
  std::vector<Metric> metrics = end_to_end(plain, first, &tail);
  std::printf("latency_tail_s is p%g over %zu samples\n", tail.pct, tail.samples);
  if (first.stuck) std::printf("stuck:%s\n", first.stuck_apps.c_str());
  if (!bench.fault_dsl().empty()) std::printf("%s", bench.fault_dsl().c_str());
  if (trace == 1) {
    metrics = per_layer(traced, plain, bench.tracer(), traced_ids);
    if (!trace_out.empty()) {
      write_trace(trace_out, bench.tracer(), metrics, bench.registry_jsonl());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  return 0;
}
