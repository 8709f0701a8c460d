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
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "afg/generate.hpp"
#include "common/rng.hpp"
#include "db/site_repository.hpp"
#include "econ/econ.hpp"
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
      {"plan", plan_runs(&counts)}};
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
