// Differential tests for the scheduler hot-path optimisation.
//
// The optimized VDCE site scheduler (cached ranked host lists, bounded
// availability scan, incremental ready heap) must produce bit-identical
// resource allocation tables to sched::reference — the frozen
// pre-optimization implementation — on every corpus case and under every
// objective × priority combination.  Any divergence, even in the last ulp
// of a start time, is a bug in the optimized path.
//
// Also: ranking sanity on the Fig-2/Fig-3 style scenarios — HEFT stays
// competitive with the VDCE level scheduler, and both beat random
// placement on average over generated grids.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/site_repository.hpp"
#include "econ/econ.hpp"
#include "predict/model.hpp"
#include "scale/generate.hpp"
#include "sched/host_selection.hpp"
#include "sched/reference.hpp"
#include "sched/site_scheduler.hpp"
#include "sched/strategy.hpp"

namespace vdce::sched {
namespace {

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
  }

  net::Topology topology;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  predict::Predictor predictor;
  SchedulerContext context;
};

/// Exact comparison — no epsilon anywhere.  The optimizations are only
/// admissible because they provably change nothing.
void expect_bit_identical(const ResourceAllocationTable& optimized,
                          const ResourceAllocationTable& naive,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(naive.scheduler_name, optimized.scheduler_name + "-naive");
  EXPECT_EQ(optimized.app_name, naive.app_name);
  ASSERT_EQ(optimized.assignments.size(), naive.assignments.size());
  EXPECT_EQ(optimized.schedule_length, naive.schedule_length);
  for (std::size_t i = 0; i < optimized.assignments.size(); ++i) {
    const Assignment& a = optimized.assignments[i];
    const Assignment& b = naive.assignments[i];
    EXPECT_EQ(a.task, b.task) << "row " << i;
    EXPECT_EQ(a.site, b.site) << "row " << i;
    EXPECT_EQ(a.hosts, b.hosts) << "row " << i;
    EXPECT_EQ(a.predicted_time, b.predicted_time) << "row " << i;
    EXPECT_EQ(a.est_start, b.est_start) << "row " << i;
    EXPECT_EQ(a.est_finish, b.est_finish) << "row " << i;
  }
}

TEST(Differential, OptimizedMatchesNaiveAcrossCorpus) {
  scale::CorpusSpec spec;
  spec.cases = 72;  // 72 cases × (2 objectives × 3 priorities) = 432 diffs
  spec.seed = 977;
  for (const scale::CorpusCase& c : scale::make_corpus(spec)) {
    Deployment dep(c.grid);
    afg::Afg graph = scale::make_workload(
        c.workload, "diff-" + std::to_string(c.index));
    for (SiteObjective objective :
         {SiteObjective::kAvailabilityAware, SiteObjective::kPaperObjective}) {
      for (PriorityMode priority :
           {PriorityMode::kPaperLevels, PriorityMode::kCommLevels,
            PriorityMode::kFifo}) {
        SchedulingPolicy options;
        options.objective = objective;
        options.priority = priority;
        auto fast = plan(graph, dep.context, options);
        auto slow = reference::schedule_naive(graph, dep.context, options);
        ASSERT_EQ(fast.has_value(), slow.has_value()) << "case " << c.index;
        if (!fast) continue;  // both infeasible the same way is fine
        expect_bit_identical(
            *fast, *slow,
            "case " + std::to_string(c.index) + " objective " +
                std::to_string(static_cast<int>(objective)) + " priority " +
                std::to_string(static_cast<int>(priority)));
      }
    }
  }
}

TEST(Differential, StalenessPenaltyPathAlsoMatches) {
  // The staleness multiplier runs inside the availability-aware host loop —
  // exercise it explicitly since the default corpus leaves it off.
  scale::GridSpec grid;
  grid.sites = 4;
  grid.hosts_per_site = 6;
  grid.seed = 31;
  Deployment dep(grid);
  dep.context.now = 1000.0;  // every sample is now stale
  scale::WorkloadSpec w;
  w.shape = scale::WorkloadShape::kRandomDag;
  w.tasks = 40;
  w.seed = 8;
  afg::Afg graph = scale::make_workload(w, "stale-diff");
  SchedulingPolicy options;
  options.stale_after = 10.0;
  auto fast = plan(graph, dep.context, options);
  auto slow = reference::schedule_naive(graph, dep.context, options);
  ASSERT_TRUE(fast.has_value() && slow.has_value());
  expect_bit_identical(*fast, *slow, "stale");
}

// ---- economy differential: unconstrained DBC == default path ---------------------
//
// docs/ECONOMY.md promises the economy is invisible until asked for: with
// prices in the context but no deadline/budget in the policy, the DBC
// strategies delegate to the default VDCE assignment phase — the table is
// field-for-field identical to `vdce-level` under the same objective ×
// priority, across the same 72-case corpus the reference differential uses
// (only the attribution name may differ).  End to end, the golden digests
// (tests/test_golden.cpp) pin unconstrained runs to the pre-economy bytes.

/// Exact table comparison, scheduler_name excepted (DBC tables carry their
/// own attribution by design).
void expect_identical_but_name(const ResourceAllocationTable& a,
                               const ResourceAllocationTable& b,
                               const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_EQ(a.schedule_length, b.schedule_length);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    const Assignment& x = a.assignments[i];
    const Assignment& y = b.assignments[i];
    EXPECT_EQ(x.task, y.task) << "row " << i;
    EXPECT_EQ(x.site, y.site) << "row " << i;
    EXPECT_EQ(x.hosts, y.hosts) << "row " << i;
    EXPECT_EQ(x.predicted_time, y.predicted_time) << "row " << i;
    EXPECT_EQ(x.est_start, y.est_start) << "row " << i;
    EXPECT_EQ(x.est_finish, y.est_finish) << "row " << i;
  }
}

TEST(EconDifferential, UnconstrainedDbcMatchesDefaultAcrossCorpus) {
  scale::CorpusSpec spec;
  spec.cases = 72;  // the reference differential's grid: 432 combinations
  spec.seed = 977;
  const econ::CostModel prices;
  for (const scale::CorpusCase& c : scale::make_corpus(spec)) {
    Deployment dep(c.grid);
    dep.context.prices = &prices;  // priced context, unconstrained policy
    afg::Afg graph = scale::make_workload(
        c.workload, "econ-diff-" + std::to_string(c.index));

    // Host selection is policy-independent: gather the bids once per case.
    std::vector<HostSelectionOutput> outputs;
    outputs.reserve(dep.repos.size());
    std::vector<const HostSelectionOutput*> gathered;
    const auto kinds = TaskKinds::of(graph);
    for (const auto& repo : dep.repos) {
      auto out = HostSelectionAlgorithm::run(graph, kinds, repo->site(), *repo,
                                             dep.predictor);
      if (out) gathered.push_back(&outputs.emplace_back(std::move(*out)));
    }

    for (SiteObjective objective :
         {SiteObjective::kAvailabilityAware, SiteObjective::kPaperObjective}) {
      for (PriorityMode priority :
           {PriorityMode::kPaperLevels, PriorityMode::kCommLevels,
            PriorityMode::kFifo}) {
        SchedulingPolicy base;
        base.objective = objective;
        base.priority = priority;
        base.strategy = objective == SiteObjective::kPaperObjective
                            ? "vdce-level-paper"
                            : "vdce-level";
        auto assign = [&](const SchedulingPolicy& policy) {
          const ResolvedPolicy resolved = resolve(policy).value();
          return resolved.row->assign(graph, dep.context, gathered,
                                      resolved.policy);
        };
        auto reference_table = assign(base);
        for (const char* name : {"dbc-cost", "dbc-time"}) {
          SchedulingPolicy dbc = base;
          dbc.strategy = name;  // deadline/budget stay 0: must delegate
          auto dbc_table = assign(dbc);
          ASSERT_EQ(reference_table.has_value(), dbc_table.has_value())
              << "case " << c.index << " strategy " << name;
          if (!reference_table) continue;
          EXPECT_EQ(dbc_table->scheduler_name, name);
          expect_identical_but_name(
              *reference_table, *dbc_table,
              "case " + std::to_string(c.index) + " strategy " + name +
                  " objective " +
                  std::to_string(static_cast<int>(objective)) + " priority " +
                  std::to_string(static_cast<int>(priority)));
        }
      }
    }
  }
}

// ---- ranking sanity on Fig-2/Fig-3 style scenarios -------------------------------

TEST(Ranking, VdceBeatsRandomOnGeneratedGrids) {
  double vdce_total = 0.0;
  double random_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    scale::GridSpec grid;
    grid.sites = 4;
    grid.hosts_per_site = 8;
    grid.seed = seed;
    Deployment dep(grid);
    scale::WorkloadSpec w;
    w.shape = scale::WorkloadShape::kLayered;
    w.tasks = 48;
    w.width = 8;
    w.seed = seed;
    afg::Afg graph = scale::make_workload(w, "rank");
    SchedulingPolicy random;
    random.strategy = "random";
    random.seed = seed;
    auto t1 = plan(graph, dep.context);
    auto t2 = plan(graph, dep.context, random);
    ASSERT_TRUE(t1.has_value() && t2.has_value());
    vdce_total += t1->schedule_length;
    random_total += t2->schedule_length;
  }
  EXPECT_LT(vdce_total, random_total);
}

TEST(Ranking, HeftCompetitiveWithVdceOnGeneratedGrids) {
  double heft_total = 0.0;
  double vdce_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    scale::GridSpec grid;
    grid.sites = 3;
    grid.hosts_per_site = 6;
    grid.seed = 100 + seed;
    Deployment dep(grid);
    scale::WorkloadSpec w;
    w.shape = scale::WorkloadShape::kRandomDag;
    w.tasks = 40;
    w.seed = 200 + seed;
    afg::Afg graph = scale::make_workload(w, "rank-heft");
    SchedulingPolicy heft;
    heft.strategy = "heft";
    auto t1 = plan(graph, dep.context, heft);
    auto t2 = plan(graph, dep.context);
    ASSERT_TRUE(t1.has_value() && t2.has_value());
    heft_total += t1->schedule_length;
    vdce_total += t2->schedule_length;
  }
  EXPECT_LT(heft_total, 1.15 * vdce_total);
}

}  // namespace
}  // namespace vdce::sched
