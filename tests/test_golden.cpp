// Golden digests: the committed oracle for the runtime's observable bytes.
//
// Every scenario runs the default pipeline and is reduced to the 64-bit
// FNV-1a digest of its JSONL trace followed by each report's describe()
// text.  tests/golden/{corpus,fleet,campus}.txt hold one "label digest" line
// per run.  The files were captured while three pre-feature pipelines were
// still selectable — VDCE assignment without the strategy registry,
// instantaneous-only reservations without the window plane, and no economy
// plane — and every run under each of them produced the default path's
// digest.  A match here therefore still proves the default path equal to
// all three, without keeping a second code path in the runtime.
// tests/golden/plan.txt, in the same format, digests offline resource
// allocation tables instead: it pins every strategy row's decisions.
//
// Scenario families:
//   corpus — the 200-case scale corpus (exec noise cv 0.1) under each of
//            vdce-level, vdce-level-paper, vdce-local, dbc-cost, dbc-time;
//   fleet  — 8 tenants x 2 staggered apps on a 2x6 grid (admission
//            contention, deferral and co-scheduling);
//   campus — campus-pair runs with and without background load, both VDCE
//            objectives; unconstrained runs must carry no spend quote.
//            The strategy-* runs were captured against VDCE assignment
//            without the registry and the econ-* runs against the runtime
//            without the economy plane, so their two tests keep the names
//            of the differentials they replace.  The live-* runs take every
//            offline strategy row through the runtime under background
//            load, planning from the bids gathered over the fabric;
//            dbc-time runs under a budget and dbc-cost under a deadline.
//   plan   — offline sched::plan() of every strategy-table row on the
//            200-case scale corpus with a priced context, plus dbc-cost
//            under a deadline and dbc-time under a budget derived from the
//            case's vdce-level table (tight on even cases, loose on odd
//            ones, so the constrained scheduler meets and misses both).
//            Each digest covers the table's bytes: scheduler name, schedule
//            length and every assignment's task, site, hosts and timing at
//            full precision.
//   chaos  — fault-plan and overload scenarios on the campus pair with
//            metrics and health on: overload past the attempt cap (pin),
//            lost channel setups (retry, abandon), crashes under recovery
//            budgets of zero and one (escalation), lost allocation-table
//            multicasts (relaunch) and a committed reservation window with
//            and without a crash inside it (stall, displace).  Each digest
//            covers the trace JSONL, the metric snapshot, the flight ring,
//            the rendered health alerts and the report; outside the digest
//            each run's event counters must be positive, and the runs
//            together fire every recovery and detection kind.
//
// After an intended behaviour change, regenerate the files and justify the
// digest diff in the change description:
//   ./build/tests/test_golden --update
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "afg/generate.hpp"
#include "chaos/fault_plan.hpp"
#include "common/rng.hpp"
#include "db/site_repository.hpp"
#include "econ/econ.hpp"
#include "editor/builder.hpp"
#include "obs/health.hpp"
#include "predict/model.hpp"
#include "scale/generate.hpp"
#include "sched/strategy.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

constexpr const char* kRegenerate = "./build/tests/test_golden --update";

/// One scenario run: its label, its digest, and anything the scenario
/// forbids regardless of the golden value (empty when the run is sound).
struct Run {
  std::string label;
  std::string digest;
  std::string anomaly;
};

std::string fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, hash);
  return hex;
}

// ---- scenarios --------------------------------------------------------------

const std::vector<std::string> kCorpusStrategies = {
    "vdce-level", "vdce-level-paper", "vdce-local", "dbc-cost", "dbc-time"};

Run run_corpus_case(const scale::CorpusCase& c, const std::string& strategy) {
  char index[8];
  std::snprintf(index, sizeof index, "%03zu", c.index);
  Run run{strategy + "/" + index, {}, {}};

  ScaleSpec spec;
  spec.grid = c.grid;
  spec.options.trace.enabled = true;
  spec.options.runtime.exec_noise_cv = 0.1;  // include the stochastic path
  auto env = VdceEnvironment::make_scale_environment(spec);
  if (!env) return {run.label, {}, env.error().to_string()};
  auto session =
      (*env)->login(common::SiteId(0), spec.admin_user, spec.admin_password);
  if (!session) return {run.label, {}, session.error().to_string()};
  afg::Afg graph = scale::make_workload(
      c.workload, "golden-" + std::to_string(c.index));
  RunOptions options;
  options.real_kernels = false;
  options.sched.strategy = strategy;
  if (strategy == "vdce-level-paper") {
    options.sched.objective = sched::SiteObjective::kPaperObjective;
  }
  auto report = (*env)->run_application(graph, *session, options);
  if (!report) run.anomaly = report.error().to_string();
  std::string out = (*env)->trace().to_jsonl();
  if (report) out += report->describe(graph);
  run.digest = fnv1a(out);
  return run;
}

std::vector<Run> corpus_runs(const std::string& strategy) {
  std::vector<Run> runs;
  for (const scale::CorpusCase& c : scale::make_corpus(scale::CorpusSpec{})) {
    runs.push_back(run_corpus_case(c, strategy));
  }
  return runs;
}

std::vector<Run> fleet_runs() {
  Run run{"tenants-8", {}, {}};
  scale::TenantSpec tenants;
  tenants.tenants = 8;
  tenants.apps_per_tenant = 2;
  tenants.seed = 7;

  ScaleSpec spec;
  spec.grid.sites = 2;
  spec.grid.hosts_per_site = 6;
  spec.grid.seed = 41;
  spec.options.trace.enabled = true;
  spec.options.runtime.exec_noise_cv = 0.0;
  auto env = VdceEnvironment::make_scale_environment(spec);
  if (!env) return {{run.label, {}, env.error().to_string()}};

  const std::vector<scale::TenantArrival> arrivals =
      scale::make_tenant_arrivals(tenants);
  std::vector<Session> sessions;
  for (std::size_t t = 0; t < tenants.tenants; ++t) {
    int priority = 1;
    for (const scale::TenantArrival& a : arrivals) {
      if (a.tenant == t) {
        priority = a.priority;
        break;
      }
    }
    const std::string user = "tenant" + std::to_string(t);
    if (auto st = (*env)->try_add_user(user, "pw", priority); !st.ok()) {
      return {{run.label, {}, st.error().to_string()}};
    }
    sessions.push_back((*env)->login(common::SiteId(0), user, "pw").value());
  }

  std::vector<AppHandle> handles;
  std::vector<afg::Afg> graphs;
  for (const scale::TenantArrival& a : arrivals) {
    if (a.at > (*env)->now()) (*env)->run_for(a.at - (*env)->now());
    graphs.push_back(scale::make_workload(a.workload, a.app_name));
    RunOptions options;
    options.real_kernels = false;
    auto handle =
        (*env)->submit_application(graphs.back(), sessions[a.tenant], options);
    if (!handle) return {{run.label, {}, a.app_name + ": rejected"}};
    handles.push_back(*handle);
  }
  if (auto st = (*env)->drain(); !st.ok()) run.anomaly = st.error().to_string();

  std::string out = (*env)->trace().to_jsonl();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    auto report = (*env)->report(handles[i]);
    if (!report) {
      run.anomaly = report.error().to_string();
      continue;
    }
    out += report->describe(graphs[i]);
  }
  run.digest = fnv1a(out);
  return {run};
}

/// One campus-pair run of `graph` under `options`, submitted `warmup`
/// seconds after bring-up.
Run run_campus_case(std::string label, std::uint64_t topology_seed,
                    bool background_load, const afg::Afg& graph,
                    const RunOptions& options, double warmup = 0.0) {
  Run run{std::move(label), {}, {}};
  EnvironmentOptions env_options;
  env_options.trace.enabled = true;
  env_options.background_load = background_load;
  VdceEnvironment env(make_campus_pair(topology_seed), env_options);
  if (auto st = env.try_bring_up(); !st.ok()) {
    return {run.label, {}, st.error().to_string()};
  }
  if (auto st = env.try_add_user("u", "p"); !st.ok()) {
    return {run.label, {}, st.error().to_string()};
  }
  auto session = env.login(common::SiteId(0), "u", "p").value();
  if (warmup > 0.0) env.run_for(warmup);
  auto report = env.run_application(graph, session, options);
  std::string out = env.trace().to_jsonl();
  if (!report) {
    run.anomaly = report.error().to_string();
  } else {
    out += report->describe(graph);
    // Unconstrained runs carry no quote.
    const bool unconstrained = options.budget == 0.0 && options.deadline == 0.0;
    if (unconstrained &&
        (report->spend() != 0.0 || report->budget != 0.0 ||
         report->spend_parts.compute != 0.0 ||
         report->spend_parts.transfer != 0.0)) {
      run.anomaly = "unconstrained run carries a spend quote";
    }
  }
  run.digest = fnv1a(out);
  return run;
}

/// Both default-strategy resolutions: the objective alternates.
std::vector<Run> campus_strategy_runs() {
  std::vector<Run> runs;
  for (std::size_t i = 0; i < 6; ++i) {
    common::Rng rng(100 + i);
    afg::LayeredDagSpec spec;
    spec.tasks = 8 + 4 * (i % 3);
    afg::Afg graph = afg::make_layered_dag(spec, rng);
    RunOptions options;
    options.real_kernels = false;
    options.sched.objective = i % 3 == 2
                                  ? sched::SiteObjective::kPaperObjective
                                  : sched::SiteObjective::kAvailabilityAware;
    runs.push_back(run_campus_case("strategy-" + std::to_string(i), 11 + i,
                                   i % 2 == 1, graph, options));
  }
  return runs;
}

/// Wider graphs, same default policy.
std::vector<Run> campus_econ_runs() {
  std::vector<Run> runs;
  for (std::size_t i = 0; i < 4; ++i) {
    common::Rng rng(300 + i);
    afg::LayeredDagSpec spec;
    spec.tasks = 14 + i * 4;
    spec.width = 4;
    afg::Afg graph = afg::make_layered_dag(spec, rng);
    RunOptions options;
    options.real_kernels = false;
    runs.push_back(run_campus_case("econ-" + std::to_string(i), 23 + i,
                                   i % 2 == 1, graph, options));
  }
  return runs;
}

/// Every offline row on the live runtime, one graph on one campus pair.
/// Submitted 0.9 s after bring-up, the bid round straddles the first 1 s
/// monitor report, so a row that read the repositories after the round
/// instead of the gathered bids would place differently.
std::vector<Run> campus_live_runs() {
  common::Rng rng(500);
  afg::LayeredDagSpec spec;
  spec.tasks = 12;
  spec.width = 4;
  const afg::Afg graph = afg::make_layered_dag(spec, rng);
  std::vector<Run> runs;
  for (const sched::Strategy& row : sched::strategies()) {
    const std::string name(row.name);
    if (name.starts_with("vdce-")) continue;
    RunOptions options;
    options.real_kernels = false;
    options.sched.strategy = name;
    if (name == "dbc-time") options.budget = 1e6;
    if (name == "dbc-cost") options.deadline = 1e6;
    runs.push_back(
        run_campus_case("live-" + name, 41, true, graph, options, 0.9));
  }
  return runs;
}

/// A corpus case's grid as an offline planner sees it: one repository per
/// site, local site 0, every other site a neighbour, the runtime's prices.
struct Deployment {
  explicit Deployment(const scale::GridSpec& spec)
      : topology(scale::make_grid(spec)) {
    for (const net::Site& site : topology.sites()) {
      auto repo = std::make_unique<db::SiteRepository>(site.id);
      repo->register_site_hosts(topology);
      repos.push_back(std::move(repo));
    }
    context.topology = &topology;
    for (auto& r : repos) context.repos.push_back(r.get());
    context.predictor = &predictor;
    context.local_site = common::SiteId(0);
    context.k_nearest = topology.site_count() - 1;
    context.prices = &econ::kRateCard;
  }

  net::Topology topology;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  predict::Predictor predictor;
  sched::SchedulerContext context;
};

/// The table's bytes: every double printed at round-trip precision.
std::string table_bytes(const sched::ResourceAllocationTable& table) {
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  std::string out = table.scheduler_name + " " + num(table.schedule_length);
  for (const sched::Assignment& a : table.assignments) {
    out += "\n" + std::to_string(a.task.value()) + " " +
           std::to_string(a.site.value());
    for (common::HostId h : a.hosts) out += " " + std::to_string(h.value());
    out += " " + num(a.predicted_time) + " " + num(a.est_start) + " " +
           num(a.est_finish);
  }
  return out;
}

/// How often the constrained dbc runs met their derived constraint.
struct ConstraintCounts {
  std::size_t deadline_met = 0;
  std::size_t deadline_missed = 0;
  std::size_t budget_met = 0;
  std::size_t budget_missed = 0;
};

std::vector<Run> plan_runs(ConstraintCounts* counts = nullptr) {
  std::vector<Run> runs;
  ConstraintCounts local;
  ConstraintCounts& n = counts != nullptr ? *counts : local;
  for (const scale::CorpusCase& c : scale::make_corpus(scale::CorpusSpec{})) {
    char index[8];
    std::snprintf(index, sizeof index, "%03zu", c.index);
    Deployment dep(c.grid);
    afg::Afg graph =
        scale::make_workload(c.workload, "plan-" + std::to_string(c.index));
    auto planned = [&](const std::string& label,
                       const sched::SchedulingPolicy& policy)
        -> common::Expected<sched::ResourceAllocationTable> {
      auto table = sched::plan(graph, dep.context, policy);
      Run run{label + "/" + index, {}, {}};
      if (!table) {
        run.anomaly = table.error().to_string();
      } else {
        run.digest = fnv1a(table_bytes(*table));
      }
      runs.push_back(std::move(run));
      return table;
    };

    common::Expected<sched::ResourceAllocationTable> baseline =
        common::Error{common::ErrorCode::kInternal, "no vdce-level row"};
    for (const sched::Strategy& row : sched::strategies()) {
      sched::SchedulingPolicy policy;
      policy.strategy = std::string(row.name);
      auto table = planned(policy.strategy, policy);
      if (row.name == "vdce-level") baseline = std::move(table);
    }
    if (!baseline) continue;

    // Tight constraints on even cases, loose ones on odd cases.
    const double factor = c.index % 2 == 0 ? 0.75 : 1.5;
    sched::SchedulingPolicy cost;
    cost.strategy = "dbc-cost";
    cost.deadline = factor * baseline->schedule_length;
    if (auto t = planned("dbc-cost+deadline", cost)) {
      ++(t->schedule_length <= cost.deadline ? n.deadline_met
                                             : n.deadline_missed);
    }
    sched::SchedulingPolicy time;
    time.strategy = "dbc-time";
    time.budget = factor * econ::estimate_spend(graph, *baseline, dep.topology,
                                                econ::kRateCard)
                               .total();
    if (auto t = planned("dbc-time+budget", time)) {
      const double spend =
          econ::estimate_spend(graph, *t, dep.topology, econ::kRateCard)
              .total();
      ++(spend <= time.budget ? n.budget_met : n.budget_missed);
    }
  }
  return runs;
}

// ---- chaos family -----------------------------------------------------------

/// The counters of the runtime's twelve recovery and detection event kinds.
/// Each chaos run names the ones its scenario must fire; together the runs
/// fire all of them.
const std::vector<std::string> kRuntimeEventCounters = {
    "monitor.failures_detected",     "monitor.echo_rounds",
    "recovery.channel_abandoned",    "recovery.channel_retries",
    "recovery.overload_terminations", "recovery.hosts_marked_down",
    "reservation.windows_displaced", "recovery.task_pins",
    "recovery.escalations",          "recovery.reschedules",
    "recovery.relaunches",           "recovery.stall_resends"};

/// One chaos run: its digest plus the event counters it must fire.
struct ChaosRun {
  Run run;
  std::vector<std::string> fired;
};

EnvironmentOptions chaos_options(chaos::FaultPlan plan) {
  EnvironmentOptions options;
  options.runtime.exec_noise_cv = 0.0;
  options.runtime.echo_period = 0.5;
  options.runtime.progress_period = 1.0;
  options.trace.enabled = true;
  options.metrics.enabled = true;
  options.health.enabled = true;
  options.flight.postmortem_path.clear();  // no dump file per failed run
  options.faults = std::move(plan);
  return options;
}

/// Every sink the runtime's events reach, in one digest: the trace, the
/// metric snapshot, the flight ring, the health alerts and the reports.
/// Outside the digest, each counter in `fired` must be positive.
ChaosRun chaos_digest(std::string label, VdceEnvironment& env,
                      const std::string& reports, std::string anomaly,
                      std::vector<std::string> fired) {
  ChaosRun out{{std::move(label), {}, std::move(anomaly)}, std::move(fired)};
  for (const std::string& name : out.fired) {
    if (out.run.anomaly.empty() && env.metrics().counter_value(name) == 0) {
      out.run.anomaly = name + " never fired";
    }
  }
  out.run.digest = fnv1a(env.trace().to_jsonl() + env.metrics().to_jsonl() +
                         env.flight_recorder().render_jsonl() +
                         obs::health::render_alerts(env.health().alerts()) +
                         reports);
  return out;
}

/// Bring up a campus pair under `options`, log one user in and run `graph`.
ChaosRun run_chaos_case(std::string label, std::uint64_t topology_seed,
                        EnvironmentOptions options, const afg::Afg& graph,
                        std::vector<std::string> fired) {
  VdceEnvironment env(make_campus_pair(topology_seed), std::move(options));
  if (auto st = env.try_bring_up(); !st.ok()) {
    return {{label, {}, st.error().to_string()}, {}};
  }
  if (auto st = env.try_add_user("u", "p"); !st.ok()) {
    return {{label, {}, st.error().to_string()}, {}};
  }
  auto session = env.login(common::SiteId(0), "u", "p").value();
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  if (!report) {
    return chaos_digest(std::move(label), env, "", report.error().to_string(),
                        std::move(fired));
  }
  return chaos_digest(std::move(label), env, report->describe(graph), "",
                      std::move(fired));
}

/// A two-stage chain pinned to site 0's second and third machines.
afg::Afg pinned_chain(const net::Topology& topology) {
  const net::Site& site0 = topology.site(common::SiteId(0));
  editor::AppBuilder builder("pinned-chain");
  auto s0 = builder.task("s0", "synthetic.w2000")
                .prefer_machine(topology.host(site0.hosts[1]).spec.name)
                .output_data(1e5);
  auto s1 = builder.task("s1", "synthetic.w2000")
                .prefer_machine(topology.host(site0.hosts[2]).spec.name);
  (void)builder.link(s0, s1);
  return builder.build().value();
}

/// Every machine carries one extra CPU of external load, so the machine
/// running the task is overloaded: the task moves until the attempt cap,
/// then is pinned where it is.
ChaosRun overload_pin_run() {
  EnvironmentOptions options = chaos_options({});
  options.runtime.overload_threshold = 1.5;
  options.background_load = true;
  options.load.mean_load = 0.0;
  options.load.reversion = 0.0;
  options.load.volatility = 0.0;
  VdceEnvironment env(make_campus_pair(13), options);
  if (auto st = env.try_bring_up(); !st.ok()) {
    return {{"overload-pin", {}, st.error().to_string()}, {}};
  }
  (void)env.try_add_user("u", "p");
  auto session = env.login(common::SiteId(0), "u", "p").value();
  for (const net::Host& h : env.topology().hosts()) {
    env.background().inject_spike(h.id, 1.0, 1e5);
  }
  const afg::Afg graph = afg::make_chain(1, 5000, 1e4);
  RunOptions run;
  run.real_kernels = false;
  auto report = env.run_application(graph, session, run);
  return chaos_digest(
      "overload-pin", env, report ? report->describe(graph) : "",
      report ? "" : report.error().to_string(),
      {"recovery.overload_terminations", "recovery.task_pins",
       "recovery.reschedules", "recovery.stall_resends",
       "monitor.echo_rounds"});
}

/// Every channel-setup message is lost: the producer retries with backoff,
/// then abandons its consumer.
ChaosRun setup_cut_run() {
  chaos::FaultPlan plan;
  plan.name("setup-cut").loss(1.0, 0.0, 1e5, "dm.setup");
  return run_chaos_case("setup-cut", 13, chaos_options(std::move(plan)),
                        pinned_chain(make_campus_pair(13)),
                        {"recovery.channel_retries",
                         "recovery.channel_abandoned"});
}

/// A crash under a recovery budget of zero: the first re-placement
/// escalates and fails the application.
ChaosRun escalation_run() {
  const net::Topology topology = make_campus_pair(13);
  const net::Site& site0 = topology.site(common::SiteId(0));
  chaos::FaultPlan plan;
  plan.name("escalate").crash(topology.host(site0.hosts[1]).spec.name, 1.5);
  EnvironmentOptions options = chaos_options(std::move(plan));
  options.runtime.max_app_recovery_actions = 0;
  // Echo detection must beat the progress sweep, which would otherwise
  // find the dead machine first and escalate before any failure detection.
  options.runtime.progress_period = 5.0;
  return run_chaos_case("escalation", 13, std::move(options),
                        pinned_chain(topology),
                        {"monitor.failures_detected",
                         "recovery.hosts_marked_down", "recovery.escalations"});
}

/// Both pinned machines crash under a recovery budget of one: the first
/// re-placement is charged, the second escalates with one action consumed.
ChaosRun second_escalation_run() {
  const net::Topology topology = make_campus_pair(13);
  const net::Site& site0 = topology.site(common::SiteId(0));
  chaos::FaultPlan plan;
  plan.name("escalate-second")
      .crash(topology.host(site0.hosts[1]).spec.name, 1.5)
      .crash(topology.host(site0.hosts[2]).spec.name, 1.5);
  EnvironmentOptions options = chaos_options(std::move(plan));
  options.runtime.max_app_recovery_actions = 1;
  return run_chaos_case("escalation-second", 13, std::move(options),
                        pinned_chain(topology),
                        {"recovery.reschedules", "recovery.escalations"});
}

/// Every allocation-table multicast of the first 3 s is lost, so the
/// coordinator hears no readiness and re-multicasts the table.
ChaosRun lost_rat_run() {
  chaos::FaultPlan plan;
  plan.name("lost-rat").loss(1.0, 0.0, 3.0, "sm.rat");
  return run_chaos_case("lost-rat", 13, chaos_options(std::move(plan)),
                        afg::make_chain(3, 500, 1e4),
                        {"recovery.relaunches"});
}

/// A fan-out/fan-in application inside a committed window over three
/// non-server machines; with `crash_at` > 0 the machine running the
/// longest task crashes halfway through it and reboots 120 s later.
ChaosRun window_run(std::uint32_t crash_host, double crash_at,
                    runtime::ExecutionReport* control) {
  chaos::FaultPlan plan;
  if (crash_at > 0.0) {
    plan.name("window-crash")
        .seed(3)
        .crash(common::HostId(crash_host), crash_at, 120.0);
  }
  VdceEnvironment env(make_campus_pair(19), chaos_options(std::move(plan)));
  const std::string label = crash_at > 0.0 ? "window-crash" : "window-control";
  if (auto st = env.try_bring_up(); !st.ok()) {
    return {{label, {}, st.error().to_string()}, {}};
  }
  (void)env.try_add_user("owner", "p");
  Session session = env.login(common::SiteId(0), "owner", "p").value();
  std::vector<common::HostId> booked;
  for (const net::Host& h : env.hosts()) {
    bool server = false;
    for (const net::Site& s : env.sites()) server = server || s.server == h.id;
    if (!server) booked.push_back(h.id);
    if (booked.size() == 3) break;
  }
  ReservationRequest request;
  request.hosts = booked;
  request.start = 1.0;
  request.end = 600.0;
  auto ticket = env.reserve(session, request);
  if (!ticket) return {{label, {}, ticket.error().to_string()}, {}};

  editor::AppBuilder app("windowed");
  auto head = app.task("head", "synthetic.w400").output_data(5e4);
  auto tail = app.task("tail", "synthetic.w300");
  for (int i = 0; i < 3; ++i) {
    auto body = app.task("body" + std::to_string(i), "synthetic.w3000")
                    .output_data(5e4);
    (void)app.link(head, body);
    (void)app.link(body, tail);
  }
  const afg::Afg graph = app.build().value();
  RunOptions run;
  run.real_kernels = false;
  run.reservation = *ticket;
  auto handle = env.submit_application(graph, session, run);
  if (!handle) return {{label, {}, handle.error().to_string()}, {}};
  std::string anomaly;
  if (auto st = env.drain(); !st.ok()) anomaly = st.error().to_string();
  auto report = env.report(*handle);
  if (!report) return {{label, {}, report.error().to_string()}, {}};
  if (control != nullptr) *control = *report;
  // A long body task completes nothing for two sweeps: a stall resend.
  std::vector<std::string> fired = {"recovery.stall_resends"};
  if (crash_at > 0.0) {
    fired = {"reservation.windows_displaced", "monitor.failures_detected",
             "recovery.hosts_marked_down", "recovery.reschedules"};
  }
  return chaos_digest(label, env, report->describe(graph), anomaly,
                      std::move(fired));
}

/// The control run, then the crash of the machine running its longest task.
std::vector<ChaosRun> window_runs() {
  runtime::ExecutionReport control;
  ChaosRun first = window_run(0, 0.0, &control);
  std::uint32_t host = 0;
  double at = 0.0;
  double longest = 0.0;
  for (const runtime::TaskOutcome& o : control.outcomes) {
    if (o.finished - o.started > longest) {
      longest = o.finished - o.started;
      host = o.host.value();
      at = o.started + longest / 2.0;
    }
  }
  std::vector<ChaosRun> runs;
  runs.push_back(std::move(first));
  runs.push_back(window_run(host, at, nullptr));
  return runs;
}

std::vector<ChaosRun> chaos_runs() {
  std::vector<ChaosRun> runs;
  runs.push_back(overload_pin_run());
  runs.push_back(setup_cut_run());
  runs.push_back(escalation_run());
  runs.push_back(second_escalation_run());
  runs.push_back(lost_rat_run());
  for (ChaosRun& run : window_runs()) runs.push_back(std::move(run));
  return runs;
}

std::vector<Run> digests(const std::vector<ChaosRun>& runs) {
  std::vector<Run> out;
  for (const ChaosRun& run : runs) out.push_back(run.run);
  return out;
}

// ---- golden files -----------------------------------------------------------

std::string golden_path(const std::string& family) {
  return std::string(VDCE_GOLDEN_DIR) + "/" + family + ".txt";
}

/// label -> digest, as committed.
std::map<std::string, std::string> load_golden(const std::string& family) {
  std::map<std::string, std::string> golden;
  std::ifstream in(golden_path(family));
  std::string label;
  std::string digest;
  while (in >> label >> digest) golden.emplace(label, digest);
  return golden;
}

/// Compare `runs` against the committed digests whose labels start with
/// `prefix`: same label set, same digest per label.
void expect_golden(const std::string& family, const std::vector<Run>& runs,
                   const std::string& prefix = "") {
  const std::map<std::string, std::string> golden = load_golden(family);
  std::size_t committed = 0;
  for (const auto& entry : golden) {
    if (entry.first.starts_with(prefix)) ++committed;
  }
  EXPECT_EQ(committed, runs.size())
      << golden_path(family) << " lists " << committed << " '" << prefix
      << "' runs; regenerate with: " << kRegenerate;
  for (const Run& run : runs) {
    EXPECT_EQ(run.anomaly, "") << run.label;
    const auto it = golden.find(run.label);
    if (it == golden.end()) {
      ADD_FAILURE() << run.label << ": no golden digest in "
                    << golden_path(family)
                    << "; regenerate with: " << kRegenerate;
      continue;
    }
    EXPECT_EQ(it->second, run.digest)
        << run.label << ": golden " << it->second << ", actual " << run.digest
        << "; if the change is intended, regenerate with: " << kRegenerate;
  }
}

class GoldenCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenCorpus, DigestsMatch) {
  expect_golden("corpus", corpus_runs(GetParam()), GetParam() + "/");
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, GoldenCorpus, ::testing::ValuesIn(kCorpusStrategies),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Golden, FleetDigestMatches) { expect_golden("fleet", fleet_runs()); }

TEST(Golden, PlanDigestsMatch) {
  ConstraintCounts counts;
  expect_golden("plan", plan_runs(&counts));
  // The derived constraints drive the constrained scheduler down both of
  // its branches: some runs meet the constraint and some cannot.
  EXPECT_GT(counts.deadline_met, 0u);
  EXPECT_GT(counts.deadline_missed, 0u);
  EXPECT_GT(counts.budget_met, 0u);
  EXPECT_GT(counts.budget_missed, 0u);
}

TEST(StrategyDifferential, DefaultPolicyMatchesLegacyDispatchBitForBit) {
  expect_golden("campus", campus_strategy_runs(), "strategy-");
}

TEST(EconDifferential, KillSwitchRunsAreByteIdentical) {
  expect_golden("campus", campus_econ_runs(), "econ-");
}

TEST(Golden, LiveOfflineRowDigestsMatch) {
  const auto runs = campus_live_runs();
  EXPECT_EQ(runs.size(), 11u);
  expect_golden("campus", runs, "live-");
}

/// The chaos-only recovery paths, digested through every sink they write.
TEST(Golden, ChaosDigestsMatch) {
  const std::vector<ChaosRun> runs = chaos_runs();
  std::set<std::string> fired;
  for (const ChaosRun& run : runs) {
    fired.insert(run.fired.begin(), run.fired.end());
  }
  for (const std::string& name : kRuntimeEventCounters) {
    EXPECT_TRUE(fired.contains(name)) << name << ": no chaos run fires it";
  }
  expect_golden("chaos", digests(runs));
}

/// Recompute every family and rewrite its file.  Refuses to write when a
/// run is anomalous, so a broken build cannot become the oracle.
int update_golden() {
  std::vector<Run> corpus;
  for (const std::string& strategy : kCorpusStrategies) {
    for (Run& run : corpus_runs(strategy)) corpus.push_back(std::move(run));
  }
  std::vector<Run> campus = campus_strategy_runs();
  for (Run& run : campus_econ_runs()) campus.push_back(std::move(run));
  for (Run& run : campus_live_runs()) campus.push_back(std::move(run));
  ConstraintCounts counts;
  const std::map<std::string, std::vector<Run>> families = {
      {"corpus", corpus},
      {"fleet", fleet_runs()},
      {"campus", campus},
      {"plan", plan_runs(&counts)},
      {"chaos", digests(chaos_runs())}};
  std::cout << "plan: dbc-cost deadline met " << counts.deadline_met
            << ", missed " << counts.deadline_missed
            << "; dbc-time budget met " << counts.budget_met << ", missed "
            << counts.budget_missed << "\n";
  int anomalies = 0;
  for (const auto& [family, runs] : families) {
    for (const Run& run : runs) {
      if (run.anomaly.empty()) continue;
      std::cerr << family << " " << run.label << ": " << run.anomaly << "\n";
      ++anomalies;
    }
  }
  if (anomalies != 0) return 1;
  for (const auto& [family, runs] : families) {
    std::ofstream out(golden_path(family));
    for (const Run& run : runs) out << run.label << " " << run.digest << "\n";
    if (!out) {
      std::cerr << "cannot write " << golden_path(family) << "\n";
      return 1;
    }
    std::cout << "wrote " << runs.size() << " digests to "
              << golden_path(family) << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace vdce

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--update") return vdce::update_golden();
  }
  return RUN_ALL_TESTS();
}
