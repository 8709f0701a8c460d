// Scheduler-strategy plane (docs/SCHEDULING.md): strategy-table units, the
// policy-API fail-fast contract, end-to-end runs of every strategy on the
// live runtime, and a 200-case scale-corpus property run
// per new strategy (max-min, b-level, t-level, work-stealing).  The default
// policy's equality with the pre-table dispatch is pinned by the golden
// digests (tests/test_golden.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "afg/generate.hpp"
#include "db/site_repository.hpp"
#include "predict/model.hpp"
#include "scale/generate.hpp"
#include "sched/site_scheduler.hpp"
#include "sched/strategy.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"

namespace vdce {
namespace {

// ---- strategy table units --------------------------------------------------

TEST(StrategyRegistry, ListsEveryBuiltInWithDescriptions) {
  const auto all = sched::strategies();
  EXPECT_GE(all.size(), 8u);  // the sensitivity grid needs at least eight
  std::set<std::string> names;
  for (const sched::Strategy& row : all) {
    EXPECT_FALSE(row.name.empty());
    EXPECT_FALSE(row.description.empty()) << row.name;
    EXPECT_NE(row.assign, nullptr) << row.name;
    EXPECT_TRUE(names.insert(std::string(row.name)).second)
        << "duplicate row: " << row.name;
  }
  for (const char* required :
       {"vdce-level", "vdce-level-paper", "vdce-local", "heft", "min-min",
        "max-min", "min-load", "round-robin", "random", "b-level", "t-level",
        "work-stealing", "dbc-cost", "dbc-time"}) {
    EXPECT_TRUE(names.contains(required)) << required;
  }
}

TEST(StrategyRegistry, MakeStrategyHonoursRegisteredNames) {
  for (const sched::Strategy& row : sched::strategies()) {
    sched::SchedulingPolicy policy;
    policy.strategy = std::string(row.name);
    auto resolved = sched::resolve(policy);
    ASSERT_TRUE(resolved.has_value()) << row.name;
    EXPECT_EQ(resolved->row, &row);
    EXPECT_EQ(resolved->policy.strategy, row.name);
  }
}

TEST(StrategyRegistry, UnknownNameIsTypedInvalidArgument) {
  sched::SchedulingPolicy policy;
  policy.strategy = "no-such-strategy";
  auto resolved = sched::resolve(policy);
  ASSERT_FALSE(resolved.has_value());
  EXPECT_EQ(resolved.error().code, common::ErrorCode::kInvalidArgument);
  // The message names the offender and lists the alternatives.
  EXPECT_NE(resolved.error().message.find("no-such-strategy"),
            std::string::npos);
  EXPECT_NE(resolved.error().message.find("vdce-level"), std::string::npos);
}

TEST(StrategyRegistry, EmptyStrategyResolvesToVdceDefaultByObjective) {
  auto name_of = [](const sched::SchedulingPolicy& policy) {
    return std::string(sched::resolve(policy).value().row->name);
  };
  sched::SchedulingPolicy policy;
  EXPECT_EQ(name_of(policy), "vdce-level");
  policy.objective = sched::SiteObjective::kPaperObjective;
  EXPECT_EQ(name_of(policy), "vdce-level-paper");
  policy.strategy = "heft";
  EXPECT_EQ(name_of(policy), "heft");
}

TEST(StrategyRegistry, ResolveAppliesEachRowsFixedSettings) {
  sched::SchedulingPolicy policy;
  policy.objective = sched::SiteObjective::kPaperObjective;
  policy.strategy = "vdce-level";
  EXPECT_EQ(sched::resolve(policy)->policy.objective,
            sched::SiteObjective::kAvailabilityAware);
  policy.strategy = "vdce-local";
  auto local = sched::resolve(policy);
  EXPECT_EQ(local->policy.objective, sched::SiteObjective::kAvailabilityAware);
  EXPECT_EQ(local->policy.access, db::AccessDomain::kLocalSite);
  policy.objective = sched::SiteObjective::kAvailabilityAware;
  policy.strategy = "vdce-level-paper";
  EXPECT_EQ(sched::resolve(policy)->policy.objective,
            sched::SiteObjective::kPaperObjective);
  // Other rows keep the caller's tuning.
  policy.strategy = "dbc-cost";
  EXPECT_EQ(sched::resolve(policy)->policy.objective,
            sched::SiteObjective::kAvailabilityAware);
  EXPECT_EQ(sched::resolve(policy)->policy.access, db::AccessDomain::kGlobal);
}

// ---- environment fail-fast contract ----------------------------------------

TEST(PolicyFailFast, SubmitAndScheduleRejectUnknownStrategy) {
  VdceEnvironment env(make_campus_pair());
  ASSERT_TRUE(env.try_bring_up().ok());
  env.add_user("u", "p");
  auto session = env.login(common::SiteId(0), "u", "p").value();
  afg::Afg graph = afg::make_chain(3, 500, 1e4);

  RunOptions run;
  run.real_kernels = false;
  run.sched.strategy = "typo-heft";
  auto handle = env.submit_application(graph, session, run);
  ASSERT_FALSE(handle.has_value());
  EXPECT_EQ(handle.error().code, common::ErrorCode::kInvalidArgument);
  EXPECT_NE(handle.error().message.find("typo-heft"), std::string::npos);
  EXPECT_EQ(env.in_flight_submissions(), 0u);  // rejected before admission

  sched::SchedulingPolicy policy;
  policy.strategy = "typo-heft";
  auto table = env.schedule(graph, session, policy);
  ASSERT_FALSE(table.has_value());
  EXPECT_EQ(table.error().code, common::ErrorCode::kInvalidArgument);
}

// ---- every strategy runs on the live runtime --------------------------------

TEST(StrategyRuntime, EveryRegisteredStrategyCompletesEndToEnd) {
  for (const sched::Strategy& row : sched::strategies()) {
    const std::string name(row.name);
    SCOPED_TRACE(name);
    VdceEnvironment env(make_campus_pair());
    ASSERT_TRUE(env.try_bring_up().ok());
    env.add_user("u", "p");
    auto session = env.login(common::SiteId(0), "u", "p").value();
    common::Rng rng(7);
    afg::LayeredDagSpec spec;
    spec.tasks = 12;
    afg::Afg graph = afg::make_layered_dag(spec, rng);
    RunOptions run;
    run.real_kernels = false;
    run.sched.strategy = name;
    auto report = env.run_application(graph, session, run);
    ASSERT_TRUE(report.has_value()) << report.error().to_string();
    EXPECT_TRUE(report->success) << report->failure_reason;
    EXPECT_EQ(report->scheduler, name);
    EXPECT_EQ(report->outcomes.size(), graph.task_count());
    // The causal plane attributes every strategy's run: the critical path
    // tiles the makespan exactly.
    auto cp = report->critical_path();
    EXPECT_NEAR(cp.phases.total(), report->makespan(), 1e-6);
  }
}

// vdce-local's access domain is fixed when the policy is resolved, before
// the candidate sites are chosen: the runtime neither multicasts the AFG to
// a remote site nor places a task there.
TEST(StrategyRuntime, VdceLocalKeepsEveryTaskOnTheSessionSite) {
  TestbedSpec spec;
  spec.sites = 4;
  spec.hosts_per_site = 4;
  VdceEnvironment env(make_testbed(spec));
  ASSERT_TRUE(env.try_bring_up().ok());
  env.add_user("u", "p");
  const common::SiteId home(1);
  auto session = env.login(home, "u", "p").value();
  // Wide enough to overflow one site, so a global strategy goes remote.
  afg::Afg graph = afg::make_independent(24, 2000);

  sched::SchedulingPolicy policy;
  policy.strategy = "vdce-local";
  auto table = env.schedule(graph, session, policy);
  ASSERT_TRUE(table.has_value()) << table.error().to_string();
  EXPECT_EQ(table->scheduler_name, "vdce-local");
  for (const sched::Assignment& a : table->assignments) {
    EXPECT_EQ(a.site, home) << "task " << a.task.value();
  }

  RunOptions run;
  run.real_kernels = false;
  run.sched.strategy = "vdce-local";
  auto report = env.run_application(graph, session, run);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  EXPECT_TRUE(report->success) << report->failure_reason;
  ASSERT_EQ(report->outcomes.size(), graph.task_count());
  for (const runtime::TaskOutcome& outcome : report->outcomes) {
    EXPECT_EQ(outcome.site, home) << outcome.task_name;
  }

  // The control: the global default spreads the same graph across sites.
  auto global = env.schedule(graph, session);
  ASSERT_TRUE(global.has_value());
  EXPECT_GT(global->sites_used().size(), 1u);
}

// ---- scale-corpus property run per new strategy -----------------------------
//
// Mirrors test_properties.cpp's invariants over the same 200-case corpus,
// once per newly added strategy (the pre-existing ones are covered by the
// scale suite): every task mapped exactly once to valid hosts, dependency-
// and transfer-respecting start times, no double-booking, and the schedule
// length equal to the last completion.

struct CorpusDeployment {
  explicit CorpusDeployment(const scale::GridSpec& spec)
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
  }

  net::Topology topology;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  predict::Predictor predictor;
  sched::SchedulerContext context;
};

void check_schedule_invariants(const afg::Afg& graph,
                               const net::Topology& topology,
                               const sched::ResourceAllocationTable& table,
                               std::size_t index) {
  SCOPED_TRACE("corpus case " + std::to_string(index));
  constexpr double kEps = 1e-9;

  ASSERT_EQ(table.assignments.size(), graph.task_count());
  std::set<std::uint32_t> seen;
  for (const sched::Assignment& a : table.assignments) {
    EXPECT_TRUE(seen.insert(a.task.value()).second)
        << "task " << a.task.value() << " mapped twice";
    const afg::TaskNode& node = graph.task(a.task);
    const std::size_t need =
        node.props.mode == afg::ComputationMode::kParallel
            ? static_cast<std::size_t>(node.props.num_nodes)
            : std::size_t{1};
    ASSERT_EQ(a.hosts.size(), need) << "task " << a.task.value();
    for (common::HostId h : a.hosts) {
      ASSERT_LT(h.value(), topology.host_count());
      const net::Host& host = topology.host(h);
      EXPECT_EQ(host.site, a.site) << "task " << a.task.value();
      EXPECT_TRUE(host.state.up);
    }
    EXPECT_GE(a.est_start, -kEps);
    EXPECT_GE(a.est_finish, a.est_start - kEps);
  }
  EXPECT_EQ(seen.size(), graph.task_count());

  for (const afg::Edge& e : graph.edges()) {
    const sched::Assignment parent = table.find(e.from).value();
    const sched::Assignment child = table.find(e.to).value();
    const double transfer = topology.transfer_time(
        parent.primary_host(), child.primary_host(), graph.edge_bytes(e));
    EXPECT_GE(child.est_start + kEps, parent.est_finish + transfer)
        << "edge " << e.from.value() << " -> " << e.to.value();
  }

  std::map<common::HostId, std::vector<std::pair<double, double>>> busy;
  for (const sched::Assignment& a : table.assignments) {
    for (common::HostId h : a.hosts) {
      busy[h].emplace_back(a.est_start, a.est_finish);
    }
  }
  for (auto& [host, intervals] : busy) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first + kEps, intervals[i - 1].second)
          << "host " << host.value() << " double-booked";
    }
  }

  double last = 0.0;
  for (const sched::Assignment& a : table.assignments) {
    last = std::max(last, a.est_finish);
  }
  EXPECT_DOUBLE_EQ(table.schedule_length, last);
}

class NewStrategyCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(NewStrategyCorpus, InvariantsHoldAcrossTwoHundredCases) {
  const std::string name = GetParam();
  scale::CorpusSpec spec;  // 200 cases
  const std::vector<scale::CorpusCase> corpus = scale::make_corpus(spec);
  ASSERT_GE(corpus.size(), 200u);
  for (const scale::CorpusCase& c : corpus) {
    CorpusDeployment dep(c.grid);
    afg::Afg graph =
        scale::make_workload(c.workload, "corpus-" + std::to_string(c.index));
    ASSERT_TRUE(graph.validate().ok()) << "case " << c.index;
    sched::SchedulingPolicy policy;
    policy.strategy = name;
    auto table = sched::plan(graph, dep.context, policy);
    ASSERT_TRUE(table.has_value())
        << "case " << c.index << ": " << table.error().to_string();
    EXPECT_EQ(table->scheduler_name, name);
    check_schedule_invariants(graph, dep.topology, *table, c.index);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNewStrategies, NewStrategyCorpus,
                         ::testing::Values("max-min", "b-level", "t-level",
                                           "work-stealing"),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// The table row over the same outputs must equal the direct assignment
// call — the offline face of the dispatch differential.
TEST(StrategyDifferential, VdceStrategyAssignEqualsDirectAssignment) {
  scale::CorpusSpec spec;
  spec.cases = 40;
  const std::vector<scale::CorpusCase> corpus = scale::make_corpus(spec);
  for (const scale::CorpusCase& c : corpus) {
    SCOPED_TRACE("case " + std::to_string(c.index));
    CorpusDeployment dep(c.grid);
    afg::Afg graph =
        scale::make_workload(c.workload, "corpus-" + std::to_string(c.index));

    sched::SchedulingPolicy policy;
    policy.objective = c.index % 2 == 0
                           ? sched::SiteObjective::kAvailabilityAware
                           : sched::SiteObjective::kPaperObjective;
    auto resolved = sched::resolve(policy);
    ASSERT_TRUE(resolved.has_value());
    const std::string expected_name(resolved->row->name);

    const auto sites = sched::candidate_site_set(dep.context, policy);
    std::vector<sched::HostSelectionOutput> outputs;
    outputs.reserve(sites.size());
    std::vector<const sched::HostSelectionOutput*> gathered;
    const auto kinds = sched::TaskKinds::of(graph);
    for (common::SiteId s : sites) {
      auto out = sched::HostSelectionAlgorithm::run(
          graph, kinds, s, dep.context.repo(s), *dep.context.predictor);
      ASSERT_TRUE(out.has_value());
      gathered.push_back(&outputs.emplace_back(std::move(*out)));
    }

    auto direct = sched::assign_with_outputs(graph, dep.context, gathered,
                                             policy, expected_name);
    ASSERT_TRUE(direct.has_value()) << direct.error().to_string();

    auto via_table = resolved->row->assign(graph, dep.context, gathered,
                                              resolved->policy);
    ASSERT_TRUE(via_table.has_value()) << via_table.error().to_string();

    EXPECT_EQ(via_table->scheduler_name, direct.value().scheduler_name);
    EXPECT_EQ(via_table->scheduler_name, expected_name);
    EXPECT_DOUBLE_EQ(via_table->schedule_length, direct->schedule_length);
    ASSERT_EQ(via_table->assignments.size(), direct->assignments.size());
    for (std::size_t i = 0; i < direct->assignments.size(); ++i) {
      const sched::Assignment& x = direct->assignments[i];
      const sched::Assignment& y = via_table->assignments[i];
      EXPECT_EQ(x.task, y.task);
      EXPECT_EQ(x.site, y.site);
      EXPECT_EQ(x.hosts, y.hosts);
      EXPECT_DOUBLE_EQ(x.est_start, y.est_start);
      EXPECT_DOUBLE_EQ(x.est_finish, y.est_finish);
    }
  }
}

}  // namespace
}  // namespace vdce
