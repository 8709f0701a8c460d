// Unit + property tests for the scheduling stack: Host Selection (Fig. 3),
// the Site Scheduler (Fig. 2), baselines, and the shared bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "afg/generate.hpp"
#include "alloc_counter.hpp"
#include "db/site_repository.hpp"
#include "obs/obs.hpp"
#include "predict/model.hpp"
#include "sched/host_selection.hpp"
#include "sched/schedule_builder.hpp"
#include "sched/site_scheduler.hpp"
#include "sched/strategy.hpp"
#include "tasklib/registry.hpp"
#include "vdce/testbed.hpp"

namespace vdce::sched {
namespace {

/// Fixture: a 3-site heterogeneous testbed with seeded repositories.
struct SchedFixture : ::testing::Test {
  SchedFixture() {
    TestbedSpec spec;
    spec.sites = 3;
    spec.hosts_per_site = 6;
    spec.seed = 21;
    topology = make_testbed(spec);
    tasklib::register_standard_libraries(registry);
    for (const net::Site& site : topology.sites()) {
      auto repo = std::make_unique<db::SiteRepository>(site.id);
      repo->register_site_hosts(topology);
      registry.seed_database(repo->tasks());
      repos.push_back(std::move(repo));
    }
    context.topology = &topology;
    for (auto& r : repos) context.repos.push_back(r.get());
    context.predictor = &predictor;
    context.local_site = common::SiteId(0);
    context.k_nearest = 2;
  }

  /// Precedence feasibility: every task starts at or after each parent's
  /// finish plus the modeled transfer time.
  void expect_feasible(const afg::Afg& graph,
                       const ResourceAllocationTable& table) {
    ASSERT_EQ(table.assignments.size(), graph.task_count());
    for (const afg::Edge& e : graph.edges()) {
      auto parent = table.find(e.from);
      auto child = table.find(e.to);
      ASSERT_TRUE(parent.has_value() && child.has_value());
      double transfer = topology.transfer_time(
          parent->primary_host(), child->primary_host(), graph.edge_bytes(e));
      EXPECT_GE(child->est_start + 1e-9, parent->est_finish + transfer)
          << "edge " << graph.task(e.from).instance_name << " -> "
          << graph.task(e.to).instance_name;
    }
    // No machine runs two tasks at once.
    for (const Assignment& a : table.assignments) {
      for (const Assignment& b : table.assignments) {
        if (a.task == b.task) continue;
        for (common::HostId ha : a.hosts) {
          for (common::HostId hb : b.hosts) {
            if (ha != hb) continue;
            bool disjoint = a.est_finish <= b.est_start + 1e-9 ||
                            b.est_finish <= a.est_start + 1e-9;
            EXPECT_TRUE(disjoint)
                << "host " << ha.value() << " double-booked";
          }
        }
      }
    }
    EXPECT_GT(table.schedule_length, 0.0);
  }

  /// Fig. 2 steps 3-5 as plan() runs them: one host-selection output per
  /// candidate site of `policy`, local site first.
  std::vector<HostSelectionOutput> gather(const afg::Afg& graph,
                                          const SchedulingPolicy& policy = {}) {
    std::vector<HostSelectionOutput> outputs;
    const auto kinds = TaskKinds::of(graph);
    for (common::SiteId s : candidate_site_set(context, policy)) {
      outputs.push_back(HostSelectionAlgorithm::run(graph, kinds, s,
                                                    *repos[s.value()], predictor)
                            .value());
    }
    return outputs;
  }

  /// The outputs as a row reads them: by pointer, in gather order.
  static std::vector<const HostSelectionOutput*> pointers(
      const std::vector<HostSelectionOutput>& outputs) {
    std::vector<const HostSelectionOutput*> out;
    for (const HostSelectionOutput& o : outputs) out.push_back(&o);
    return out;
  }

  /// Fig. 3 at site 0 alone.
  common::Expected<HostSelectionOutput> select_at_site0(const afg::Afg& graph) {
    return HostSelectionAlgorithm::run(graph, TaskKinds::of(graph),
                                       common::SiteId(0), *repos[0], predictor);
  }

  net::Topology topology;
  tasklib::TaskRegistry registry;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  predict::Predictor predictor;
  SchedulerContext context;
};

// ---- host selection (Fig. 3) ----------------------------------------------------

TEST_F(SchedFixture, HostSelectionPicksFastestIdleMachine) {
  afg::Afg graph = afg::make_independent(1, 100);
  auto output = select_at_site0(graph);
  ASSERT_TRUE(output.has_value());
  ASSERT_EQ(output->bid_count(), 1u);
  const TaskBid& bid = *output->bid(common::TaskId(0));
  // The chosen machine must achieve the minimum prediction among all site-0
  // machines.
  double best = 1e18;
  for (const auto& rec :
       repos[0]->resources().available_hosts(common::SiteId(0))) {
    best = std::min(best, 100.0 / rec.speed_mflops);
  }
  EXPECT_NEAR(bid.predicted, best, 1e-9);
}

TEST_F(SchedFixture, HostSelectionHonoursPreferredMachine) {
  afg::Afg graph("g");
  afg::TaskProperties props;
  props.outputs.push_back(afg::FileSpec{"", 100, false});
  const std::string target =
      topology.host(topology.site(common::SiteId(0)).hosts[3]).spec.name;
  props.preferred_machine = target;
  ASSERT_TRUE(graph.add_task("t", "synthetic.w100", props).has_value());
  auto output = select_at_site0(graph);
  ASSERT_TRUE(output.has_value());
  ASSERT_EQ(output->bid_count(), 1u);
  EXPECT_EQ(output->hosts(*output->bid(common::TaskId(0)))[0],
            topology.site(common::SiteId(0)).hosts[3]);
}

TEST_F(SchedFixture, HostSelectionHonoursMachineType) {
  afg::Afg graph("g");
  afg::TaskProperties props;
  props.outputs.push_back(afg::FileSpec{"", 100, false});
  props.preferred_machine_type = "SGI";
  ASSERT_TRUE(graph.add_task("t", "synthetic.w100", props).has_value());
  auto output = select_at_site0(graph);
  ASSERT_TRUE(output.has_value());
  for (const TaskBid& bid : output->bids) {
    for (common::HostId h : output->hosts(bid)) {
      EXPECT_EQ(topology.host(h).spec.machine_type, "SGI");
    }
  }
}

TEST_F(SchedFixture, HostSelectionRespectsConstraintsDb) {
  afg::Afg graph = afg::make_independent(1, 100);
  const std::string task_name = graph.task(common::TaskId(0)).task_name;
  common::HostId only = topology.site(common::SiteId(0)).hosts[2];
  repos[0]->constraints().register_executable(task_name, only, "/opt/t");
  auto output = select_at_site0(graph);
  ASSERT_TRUE(output.has_value());
  ASSERT_EQ(output->bid_count(), 1u);
  EXPECT_EQ(output->hosts(*output->bid(common::TaskId(0)))[0], only);
}

TEST_F(SchedFixture, HostSelectionSkipsDownHosts) {
  afg::Afg graph = afg::make_independent(1, 100);
  for (common::HostId h : topology.site(common::SiteId(0)).hosts) {
    (void)repos[0]->resources().set_host_up(h, false);
  }
  auto output = select_at_site0(graph);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(output->bid_count(), 0u);  // nothing to bid with
}

TEST_F(SchedFixture, ParallelTaskGetsRequestedNodeCount) {
  afg::Afg graph("g");
  afg::TaskProperties props;
  props.mode = afg::ComputationMode::kParallel;
  props.num_nodes = 3;
  props.outputs.push_back(afg::FileSpec{"", 100, false});
  ASSERT_TRUE(graph.add_task("p", "synthetic.w1000", props).has_value());
  auto output = select_at_site0(graph);
  ASSERT_TRUE(output.has_value());
  ASSERT_EQ(output->bid_count(), 1u);
  EXPECT_EQ(output->hosts(*output->bid(common::TaskId(0))).size(), 3u);
}

TEST_F(SchedFixture, ParallelBidFailsWhenSiteTooSmall) {
  afg::Afg graph("g");
  afg::TaskProperties props;
  props.mode = afg::ComputationMode::kParallel;
  props.num_nodes = 99;
  props.outputs.push_back(afg::FileSpec{"", 100, false});
  auto id = graph.add_task("p", "synthetic.w1000", props);
  ASSERT_TRUE(id.has_value());
  const std::vector<HostSelectionOutput> outputs = gather(graph);
  auto view = PlannerView::make(graph, context, pointers(outputs),
                                SchedulingPolicy{});
  ASSERT_TRUE(view.has_value()) << view.error().to_string();
  auto bid = view->bid_at(*id, common::SiteId(0));
  ASSERT_FALSE(bid.has_value());
  EXPECT_EQ(bid.error().code, common::ErrorCode::kNoFeasibleResource);
  // No candidate site is large enough either.
  auto any = view->parallel_bid(*id);
  ASSERT_FALSE(any.has_value());
  EXPECT_EQ(any.error().code, common::ErrorCode::kNoFeasibleResource);
}

TEST_F(SchedFixture, PlannerViewOffersOnlyWhatTheGatheredBidsAdmit) {
  common::Rng rng(17);
  afg::LayeredDagSpec spec;
  spec.tasks = 20;
  spec.width = 5;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  std::vector<HostSelectionOutput> outputs = gather(graph);
  ASSERT_EQ(outputs.size(), 3u);
  auto sites_offered = [&](const PlannerView& view) {
    std::set<std::uint32_t> sites;
    for (const afg::TaskNode& node : graph.tasks()) {
      for (const PlanOption& o : view.options(node.id)) {
        sites.insert(o.site.value());
      }
    }
    return sites;
  };
  {
    auto all = PlannerView::make(graph, context, pointers(outputs),
                                 SchedulingPolicy{});
    ASSERT_TRUE(all.has_value()) << all.error().to_string();
    EXPECT_EQ(sites_offered(*all).size(), 3u);
  }

  SCOPED_TRACE("a site missing from the outputs gives no option");
  const common::SiteId silent = outputs[1].site;
  outputs.erase(outputs.begin() + 1);
  auto partial = PlannerView::make(graph, context, pointers(outputs),
                                  SchedulingPolicy{});
  ASSERT_TRUE(partial.has_value()) << partial.error().to_string();
  EXPECT_FALSE(sites_offered(*partial).contains(silent.value()));
  EXPECT_EQ(sites_offered(*partial).size(), 2u);

  SCOPED_TRACE("a host held by another application is no option");
  std::set<common::HostId> taken;
  for (const HostSelectionOutput& out : outputs) {
    for (std::size_t i = 0; i < out.host_pool.size(); i += 2) {
      taken.insert(out.host_pool[i].host);
    }
  }
  WindowTable held;
  held.acquire(common::AppId(9), {taken.begin(), taken.end()});
  SchedulerContext ctx = context;
  ctx.reservations = &held;
  ctx.reserving_app = common::AppId(1);
  auto view = PlannerView::make(graph, ctx, pointers(outputs),
                                SchedulingPolicy{});
  ASSERT_TRUE(view.has_value()) << view.error().to_string();
  for (const afg::TaskNode& node : graph.tasks()) {
    ASSERT_FALSE(view->options(node.id).empty()) << node.instance_name;
    for (const PlanOption& o : view->options(node.id)) {
      EXPECT_FALSE(taken.contains(o.host()))
          << node.instance_name << " offered held host " << o.host().value();
    }
  }
}

TEST_F(SchedFixture, RankedHostsAscendByPrediction) {
  afg::Afg graph = afg::make_independent(1, 500);
  const afg::TaskNode& node = graph.task(common::TaskId(0));
  auto perf = resolve_perf(node, repos[0]->tasks());
  auto ranked = HostSelectionAlgorithm::feasible_hosts(
      node, *perf, common::SiteId(0), *repos[0], predictor);
  ASSERT_GE(ranked.size(), 2u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].predicted, ranked[i].predicted);
  }
}

// ---- one ranking per task kind -------------------------------------------------

/// The task templates of mixed_kinds_graph, in round-robin order.  The
/// first one returns with a preferred machine and with a preferred machine
/// type (same task name, two more kinds); synthetic.w400 is the task the
/// constraints DB lists on two hosts per site; a parallel task of the plain
/// w900 kind shares its ranking but bids its own group, and the two-node
/// w2000 task is a kind of its own.  Six kinds.
constexpr std::size_t kTemplates = 7;
constexpr std::size_t kKinds = 6;

struct MixedKinds : SchedFixture {
  MixedKinds() {
    for (const net::Site& site : topology.sites()) {
      for (std::size_t i : {1u, 4u}) {
        repos[site.id.value()]->constraints().register_executable(
            "synthetic.w400", site.hosts[i], "/opt/w400");
      }
    }
  }

  /// `tasks` tasks cycling through the templates; task i >= kTemplates
  /// reads the output of task i - kTemplates.
  afg::Afg graph(std::size_t tasks) const {
    const std::string machine =
        topology.host(topology.site(common::SiteId(0)).hosts[3]).spec.name;
    afg::Afg g("mixed-kinds");
    for (std::size_t i = 0; i < tasks; ++i) {
      afg::TaskProperties props;
      props.outputs.push_back(afg::FileSpec{"", 1e4, false});
      if (i >= kTemplates) props.inputs.resize(1);
      std::string name = "synthetic.w100";
      switch (i % kTemplates) {
        case 1: name = "synthetic.w900"; break;
        case 2: props.preferred_machine = machine; break;
        case 3: props.preferred_machine_type = "SGI"; break;
        case 4: name = "synthetic.w400"; break;
        case 5:
          name = "synthetic.w900";
          props.mode = afg::ComputationMode::kParallel;
          props.num_nodes = 3;
          break;
        case 6:
          name = "synthetic.w2000";
          props.mode = afg::ComputationMode::kParallel;
          props.num_nodes = 2;
          break;
        default: break;
      }
      const auto id =
          g.add_task("t" + std::to_string(i), name, std::move(props)).value();
      if (i >= kTemplates) {
        EXPECT_TRUE(g.connect(common::TaskId(static_cast<std::uint32_t>(
                                  i - kTemplates)),
                              0, id, 0)
                        .ok());
      }
    }
    return g;
  }
};

TEST_F(MixedKinds, EachKindIsRankedOnceExactlyAsAFreshRankingWould) {
  const afg::Afg g = graph(3 * kTemplates);
  const auto kinds = TaskKinds::of(g);
  ASSERT_EQ(kinds->count(), kKinds);
  for (const net::Site& site : topology.sites()) {
    SCOPED_TRACE("site " + std::to_string(site.id.value()));
    const db::SiteRepository& repo = *repos[site.id.value()];
    auto output =
        HostSelectionAlgorithm::run(g, kinds, site.id, repo, predictor);
    ASSERT_TRUE(output.has_value()) << output.error().to_string();
    const std::vector<db::ResourceRecord> pool =
        repo.resources().available_hosts(site.id);
    auto fresh = [&](const afg::TaskNode& node) {
      return HostSelectionAlgorithm::rank_hosts(
          node, resolve_perf(node, repo.tasks()).value(), pool, repo,
          predictor);
    };
    std::set<const RankedRef*> distinct;
    for (const afg::TaskNode& node : g.tasks()) {
      const std::vector<RankedRef> want = fresh(node);
      const std::span<const RankedRef> got = output->ranked(node.id);
      ASSERT_EQ(got.size(), want.size()) << node.instance_name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].index, want[i].index) << node.instance_name;
        EXPECT_EQ(got[i].predicted, want[i].predicted) << node.instance_name;
      }
      if (!got.empty()) distinct.insert(got.data());
      // A parallel task still bids its own group: its kind's fastest
      // num_nodes machines.
      if (const TaskBid* bid = output->bid(node.id);
          bid != nullptr && node.props.mode == afg::ComputationMode::kParallel) {
        const auto hosts = output->hosts(*bid);
        ASSERT_EQ(hosts.size(),
                  static_cast<std::size_t>(node.props.num_nodes));
        for (std::size_t i = 0; i < hosts.size(); ++i) {
          EXPECT_EQ(hosts[i], output->host_pool[got[i].index].host);
        }
      }
    }
    // The flat array holds one ranking per kind, not one per task.
    std::size_t per_kind = 0;
    std::size_t ranked_kinds = 0;
    for (afg::TaskId first : kinds->first) {
      const std::size_t n = fresh(g.task(first)).size();
      per_kind += n;
      ranked_kinds += n > 0 ? 1 : 0;
    }
    EXPECT_EQ(output->rankings.size(), per_kind);
    EXPECT_EQ(distinct.size(), ranked_kinds);
    if (site.id == common::SiteId(0)) {
      EXPECT_EQ(distinct.size(), kKinds);  // the preferred machine is here
    }
  }
}

TEST_F(MixedKinds, SchedulingAllocatesPerKindNotPerTask) {
  // Fig. 3 at one site, kinds included: a graph ten times larger from the
  // same kinds costs exactly as many allocations.
  auto select_allocations = [&](const afg::Afg& g) {
    const std::uint64_t before = test::allocation_count();
    auto output = HostSelectionAlgorithm::run(g, TaskKinds::of(g),
                                              common::SiteId(0), *repos[0],
                                              predictor);
    const std::uint64_t spent = test::allocation_count() - before;
    EXPECT_TRUE(output.has_value());
    return spent;
  };
  const afg::Afg small = graph(200);
  const afg::Afg large = graph(2000);
  EXPECT_EQ(select_allocations(small), select_allocations(large));

  // The decision half: a sequential task costs two allocations, the
  // placement's host vector and the table row's copy of it; a parallel task
  // also builds a group at each of the two sites that lose.  Two of every
  // seven tasks are parallel, so 2 + 2 * 2/7 = 2.57 per task, plus per-graph
  // work (levels, the ready heap) of about 0.01 at 2000 tasks.
  constexpr double kAssignAllocsPerTask = 2.6;
  std::vector<HostSelectionOutput> outputs = gather(large);
  const std::vector<const HostSelectionOutput*> gathered = pointers(outputs);
  const std::uint64_t before = test::allocation_count();
  auto table = assign_with_outputs(large, context, gathered,
                                   SchedulingPolicy{}, "vdce-level");
  const std::uint64_t spent = test::allocation_count() - before;
  ASSERT_TRUE(table.has_value()) << table.error().to_string();
  EXPECT_LE(static_cast<double>(spent) / 2000.0, kAssignAllocsPerTask)
      << spent << " allocations for 2000 tasks";
}

// ---- resolve_perf --------------------------------------------------------------

TEST_F(SchedFixture, ResolvePerfPrefersDatabase) {
  afg::Afg graph("g");
  auto id = graph.add_task("t", "matrix.multiply", afg::TaskProperties{});
  auto perf = resolve_perf(graph.task(*id), repos[0]->tasks());
  ASSERT_TRUE(perf.has_value());
  EXPECT_DOUBLE_EQ(perf->computation_mflop, 1500.0);
}

TEST_F(SchedFixture, ResolvePerfSynthesizes) {
  afg::Afg graph("g");
  auto id = graph.add_task("t", "synthetic.w777", afg::TaskProperties{});
  auto perf = resolve_perf(graph.task(*id), repos[0]->tasks());
  ASSERT_TRUE(perf.has_value());
  EXPECT_DOUBLE_EQ(perf->computation_mflop, 777.0);
}

TEST_F(SchedFixture, ResolvePerfRejectsUnknown) {
  afg::Afg graph("g");
  auto id = graph.add_task("t", "no.such_task", afg::TaskProperties{});
  EXPECT_FALSE(resolve_perf(graph.task(*id), repos[0]->tasks()).has_value());
}

// ---- schedule builder --------------------------------------------------------

TEST_F(SchedFixture, BuilderTracksHostOccupancy) {
  afg::Afg graph = afg::make_independent(2, 100);
  ScheduleBuilder builder(graph, topology);
  common::HostId h = topology.site(common::SiteId(0)).hosts[0];
  builder.place(common::TaskId(0), common::SiteId(0), {h}, 5.0);
  EXPECT_DOUBLE_EQ(builder.host_free(h), 5.0);
  const Assignment& second =
      builder.place(common::TaskId(1), common::SiteId(0), {h}, 3.0);
  EXPECT_DOUBLE_EQ(second.est_start, 5.0);
  EXPECT_DOUBLE_EQ(second.est_finish, 8.0);
  EXPECT_DOUBLE_EQ(builder.makespan(), 8.0);
}

TEST_F(SchedFixture, BuilderChargesEdgeTransfers) {
  afg::Afg graph = afg::make_chain(2, 100, 1e5);
  ScheduleBuilder builder(graph, topology);
  common::HostId a = topology.site(common::SiteId(0)).hosts[0];
  common::HostId b = topology.site(common::SiteId(1)).hosts[0];
  builder.place(common::TaskId(0), common::SiteId(0), {a}, 2.0);
  double expected_transfer = topology.transfer_time(a, b, 1e5);
  const Assignment& child =
      builder.place(common::TaskId(1), common::SiteId(1), {b}, 2.0);
  EXPECT_NEAR(child.est_start, 2.0 + expected_transfer, 1e-9);
}

TEST_F(SchedFixture, DataReadyFloorBoundsEveryHostOfItsSite) {
  common::Rng rng(11);
  afg::LayeredDagSpec spec;
  spec.tasks = 40;
  spec.width = 6;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  // Staged file inputs on some tasks bring in the staging term.
  for (std::size_t t = 0; t < graph.task_count(); t += 5) {
    graph.task(common::TaskId(static_cast<std::uint32_t>(t)))
        .props.inputs.push_back(afg::FileSpec{
            "/users/u/in" + std::to_string(t) + ".dat", 2e6, false});
  }
  auto table = plan(graph, context);
  ASSERT_TRUE(table.has_value()) << table.error().message;
  auto order = graph.topological_order();
  ASSERT_TRUE(order.has_value());
  // Replay the plan's placements.  Before each task is placed, data_ready
  // on every host must equal the max this test computes from
  // Topology::transfer_time, and the task's floor at every site must bound
  // it on every host there, the parents' own hosts and the staging server
  // included.
  ScheduleBuilder builder(graph, topology);
  const common::HostId staging = topology.site(context.local_site).server;
  std::size_t checked = 0;
  std::size_t loopback = 0, lan = 0, wan = 0, staged = 0;
  for (afg::TaskId task : *order) {
    for (const net::Site& site : topology.sites()) {
      const double floor = builder.data_ready_floor(task, site.id, staging);
      for (common::HostId h : site.hosts) {
        double expected = 0.0;
        for (std::uint32_t idx : graph.in_edge_ids(task)) {
          const afg::Edge& e = graph.edge(idx);
          const Assignment& parent = builder.assignment(e.from);
          const common::HostId from = parent.primary_host();
          expected = std::max(
              expected, parent.est_finish + topology.transfer_time(
                                                from, h, graph.edge_bytes(e)));
          if (from == h) {
            ++loopback;
          } else if (topology.host(from).site == site.id) {
            ++lan;
          } else {
            ++wan;
          }
        }
        for (const afg::FileSpec& f : graph.task(task).props.inputs) {
          if (!f.dataflow && !f.path.empty()) {
            expected = std::max(
                expected, topology.transfer_time(staging, h, f.size_bytes));
            if (h == staging) ++staged;
          }
        }
        const double ready = builder.data_ready(task, h, staging);
        EXPECT_EQ(ready, expected)
            << graph.task(task).instance_name << " on host " << h.value();
        EXPECT_LE(floor, ready)
            << graph.task(task).instance_name << " on host " << h.value();
        ++checked;
      }
    }
    const Assignment& a = table->assignments[task.value()];
    builder.place(task, a.site, a.hosts, a.predicted_time, staging);
  }
  EXPECT_EQ(checked, graph.task_count() * 18u);
  EXPECT_GT(loopback, 0u);
  EXPECT_GT(lan, 0u);
  EXPECT_GT(wan, 0u);
  EXPECT_GT(staged, 0u);
}

TEST_F(SchedFixture, ReadyListReleasesATwoPortChildOnce) {
  afg::Afg graph("two-port");
  afg::TaskProperties producer;
  producer.outputs.assign(2, afg::FileSpec{"", 1e4, false});
  afg::TaskProperties consumer;
  consumer.inputs.resize(2);
  auto from = graph.add_task("from", "synthetic.w10", producer);
  auto to = graph.add_task("to", "synthetic.w10", consumer);
  ASSERT_TRUE(from.has_value() && to.has_value());
  ASSERT_TRUE(graph.connect(*from, 0, *to, 0).ok());
  ASSERT_TRUE(graph.connect(*from, 1, *to, 1).ok());
  std::vector<afg::TaskId> placed;
  auto st = run_ready_list(graph, {0.0, 0.0}, [&](afg::TaskId t) {
    placed.push_back(t);
    return common::Status{};
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(placed, (std::vector<afg::TaskId>{*from, *to}));
}

// ---- site scheduler (Fig. 2) -----------------------------------------------------

TEST_F(SchedFixture, SchedulesFigure1Shape) {
  afg::Afg graph = afg::make_linear_solver_shape(1e5);
  auto table = plan(graph, context);
  ASSERT_TRUE(table.has_value()) << table.error().message;
  expect_feasible(graph, *table);
  EXPECT_EQ(table->scheduler_name, "vdce-level");
}

TEST_F(SchedFixture, PaperObjectiveAlsoFeasible) {
  afg::Afg graph = afg::make_linear_solver_shape(1e5);
  SchedulingPolicy options;
  options.objective = SiteObjective::kPaperObjective;
  auto table = plan(graph, context, options);
  ASSERT_TRUE(table.has_value());
  expect_feasible(graph, *table);
}

TEST_F(SchedFixture, LocalAccessStaysOnLocalSite) {
  common::Rng rng(3);
  afg::LayeredDagSpec spec;
  spec.tasks = 30;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  // Every row honours the user's access domain, not only the VDCE ones.
  for (const Strategy& row : strategies()) {
    SCOPED_TRACE(std::string(row.name));
    SchedulingPolicy options;
    options.strategy = std::string(row.name);
    options.access = db::AccessDomain::kLocalSite;
    auto table = plan(graph, context, options);
    ASSERT_TRUE(table.has_value()) << table.error().to_string();
    std::size_t remote = 0;
    for (const Assignment& a : table->assignments) {
      if (a.site != common::SiteId(0)) ++remote;
    }
    EXPECT_EQ(remote, 0u) << remote << " of " << graph.task_count()
                          << " tasks on remote sites";
  }
}

TEST_F(SchedFixture, WideAreaUsesRemoteSitesWhenItHelps) {
  // A wide bag of equal tasks overflows the local site's machines.
  afg::Afg graph = afg::make_independent(24, 2000);
  auto table = plan(graph, context);
  ASSERT_TRUE(table.has_value());
  EXPECT_GT(table->sites_used().size(), 1u);
}

/// What the availability-aware assign decided under one kind of host
/// filtering: each task's primary host (by task id), the table's length,
/// and the filter counters.
struct FilteredRun {
  std::vector<std::uint32_t> hosts;
  double schedule_length = 0.0;
  std::uint64_t held_skipped = 0;
  std::uint64_t window_skipped = 0;
  std::uint64_t stale_penalized = 0;
};

FilteredRun run_filtered(const afg::Afg& graph, SchedulerContext context,
                         const SchedulingPolicy& policy) {
  obs::Observability obs(obs::MetricsOptions{true}, obs::TraceOptions{});
  context.obs = &obs;
  FilteredRun run;
  auto table = plan(graph, context, policy);
  EXPECT_TRUE(table.has_value()) << table.error().message;
  if (!table) return run;
  for (const Assignment& a : table->assignments) {
    run.hosts.push_back(a.primary_host().value());
  }
  run.schedule_length = table->schedule_length;
  obs::MetricsRegistry& m = obs.metrics();
  run.held_skipped = m.counter("sched.contention.hosts_skipped").value();
  run.window_skipped = m.counter("sched.windows.hosts_skipped").value();
  run.stale_penalized = m.counter("sched.stale_hosts_penalized").value();
  return run;
}

TEST_F(SchedFixture, BoundedScanKeepsEveryFilterCounterExact) {
  // The availability loop skips hosts that cannot win, but only after the
  // filter and the staleness penalty have seen them, and never under
  // committed windows.  Tables and counters are pinned to the values of
  // the exhaustive scan.
  common::Rng rng(29);
  afg::LayeredDagSpec spec;
  spec.tasks = 40;
  spec.width = 8;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  SchedulingPolicy policy;  // vdce-level, availability-aware

  {
    SCOPED_TRACE("hosts held by another application");
    WindowTable held;
    std::vector<common::HostId> taken;
    for (const net::Site& site : topology.sites()) {
      for (std::size_t i = 1; i < site.hosts.size(); i += 3) {
        taken.push_back(site.hosts[i]);
      }
    }
    held.acquire(common::AppId(9), taken);
    SchedulerContext ctx = context;
    ctx.reservations = &held;
    ctx.reserving_app = common::AppId(1);
    const FilteredRun run = run_filtered(graph, ctx, policy);
    const std::vector<std::uint32_t> hosts{
        17, 8, 5, 12, 14, 5, 0, 14, 3, 11, 17, 5, 3, 11, 5, 15, 0, 12, 12, 17,
        12, 11, 12, 17, 14, 17, 12, 14, 3, 17, 9, 12, 15, 17, 14, 5, 8, 12, 17,
        12};
    EXPECT_EQ(run.hosts, hosts);
    EXPECT_EQ(run.schedule_length, 0x1.02e5d189683d8p+6);
    EXPECT_EQ(run.held_skipped, 240u);
    EXPECT_EQ(run.window_skipped, 0u);
    EXPECT_EQ(run.stale_penalized, 0u);
  }
  {
    SCOPED_TRACE("a pending foreign window under backfill");
    WindowTable windows;
    std::vector<common::HostId> booked;
    for (const net::Site& site : topology.sites()) {
      for (std::size_t i = 0; i < site.hosts.size(); i += 2) {
        booked.push_back(site.hosts[i]);
      }
    }
    Window w;
    w.user = "other";
    w.start = 40.0;
    w.end = 90.0;
    w.hosts = booked;
    ASSERT_TRUE(windows.book(w).has_value());
    SchedulerContext ctx = context;
    ctx.reservations = &windows;
    ctx.reserving_app = common::AppId(1);
    ASSERT_TRUE(policy.backfill);
    const FilteredRun run = run_filtered(graph, ctx, policy);
    const std::vector<std::uint32_t> hosts{
        17, 10, 16, 12, 5, 16, 14, 14, 15, 10, 17, 12, 16, 7, 12, 12, 16, 17,
        17, 15, 17, 7, 17, 15, 17, 17, 15, 13, 11, 15, 1, 17, 13, 17, 3, 9, 15,
        17, 5, 17};
    EXPECT_EQ(run.hosts, hosts);
    EXPECT_EQ(run.schedule_length, 0x1.10e7b6c19adp+6);
    EXPECT_EQ(run.held_skipped, 0u);
    EXPECT_EQ(run.window_skipped, 234u);
    EXPECT_EQ(run.stale_penalized, 0u);
  }
  {
    SCOPED_TRACE("stale samples under stale_after");
    // Hosts with an even id report a fresh sample; the rest never did.
    for (auto& repo : repos) {
      for (const db::ResourceRecord& r :
           repo->resources().available_hosts(repo->site())) {
        if (r.host.value() % 2 != 0) continue;
        ASSERT_TRUE(repo->resources()
                        .record_workload(r.host, db::WorkloadSample{
                                                     95.0, 0.2,
                                                     r.total_memory_mb})
                        .ok());
      }
    }
    SchedulerContext ctx = context;
    ctx.now = 100.0;
    SchedulingPolicy stale = policy;
    stale.stale_after = 10.0;
    const FilteredRun run = run_filtered(graph, ctx, stale);
    const std::vector<std::uint32_t> hosts{
        16, 8, 14, 12, 10, 14, 15, 17, 15, 13, 12, 16, 14, 5, 16, 8, 0, 12, 12,
        16, 12, 13, 12, 16, 14, 16, 12, 14, 8, 16, 4, 12, 15, 16, 14, 17, 10,
        12, 16, 12};
    EXPECT_EQ(run.hosts, hosts);
    EXPECT_EQ(run.schedule_length, 0x1.16ef7a345a215p+6);
    EXPECT_EQ(run.held_skipped, 0u);
    EXPECT_EQ(run.window_skipped, 0u);
    EXPECT_EQ(run.stale_penalized, 360u);
  }
}

TEST_F(SchedFixture, RejectsCyclicGraph) {
  // Build a cycle by hand (connect() can't, so forge via two tasks and a
  // back edge through a third).
  afg::Afg graph("g");
  afg::TaskProperties p;
  p.inputs.resize(1);
  p.outputs.push_back(afg::FileSpec{"", 10, false});
  auto a = graph.add_task("a", "synthetic.w100", p);
  auto b = graph.add_task("b", "synthetic.w100", p);
  ASSERT_TRUE(graph.connect(*a, 0, *b, 0).ok());
  ASSERT_TRUE(graph.connect(*b, 0, *a, 0).ok());
  auto table = plan(graph, context);
  ASSERT_FALSE(table.has_value());
  EXPECT_EQ(table.error().code, common::ErrorCode::kCycleDetected);
}

TEST_F(SchedFixture, HigherLevelTasksPlacedOnFasterMachinesFirst) {
  // A chain: the head has the highest level and must start at t=0.
  afg::Afg graph = afg::make_chain(4, 500, 1e4);
  auto table = plan(graph, context);
  ASSERT_TRUE(table.has_value());
  auto head = table->find(graph.find_task("s0").value());
  EXPECT_DOUBLE_EQ(head->est_start, 0.0);
}

// ---- baselines & factory: property sweep over (scheduler, graph shape) -----------

struct BaselineCase {
  const char* scheduler;
  const char* shape;
};

class SchedulerProperty
    : public SchedFixture,
      public ::testing::WithParamInterface<BaselineCase> {};

afg::Afg make_shape(const std::string& shape) {
  common::Rng rng(17);
  if (shape == "layered") {
    afg::LayeredDagSpec spec;
    spec.tasks = 40;
    spec.width = 6;
    return afg::make_layered_dag(spec, rng);
  }
  if (shape == "forkjoin") return afg::make_fork_join(5, 3, 400, 1e5);
  if (shape == "chain") return afg::make_chain(12, 300, 1e5);
  if (shape == "bag") return afg::make_independent(20, 800);
  if (shape == "reduce") return afg::make_reduction_tree(9, 200, 1e5);
  return afg::make_linear_solver_shape(1e5);
}

/// The offline entry for a named strategy.
common::Expected<ResourceAllocationTable> plan_with(
    const std::string& strategy, const afg::Afg& graph,
    const SchedulerContext& context, std::uint64_t seed = 42) {
  SchedulingPolicy policy;
  policy.strategy = strategy;
  policy.seed = seed;
  return plan(graph, context, policy);
}

TEST_P(SchedulerProperty, ProducesFeasibleCompleteSchedule) {
  afg::Afg graph = make_shape(GetParam().shape);
  auto table = plan_with(GetParam().scheduler, graph, context);
  ASSERT_TRUE(table.has_value()) << table.error().message;
  expect_feasible(graph, *table);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersAllShapes, SchedulerProperty,
    ::testing::Values(
        BaselineCase{"random", "layered"}, BaselineCase{"random", "chain"},
        BaselineCase{"round-robin", "layered"},
        BaselineCase{"round-robin", "bag"},
        BaselineCase{"min-load", "layered"},
        BaselineCase{"min-load", "forkjoin"},
        BaselineCase{"min-min", "layered"}, BaselineCase{"min-min", "reduce"},
        BaselineCase{"vdce-level", "layered"},
        BaselineCase{"vdce-level", "forkjoin"},
        BaselineCase{"vdce-level", "bag"},
        BaselineCase{"vdce-level-paper", "layered"},
        BaselineCase{"vdce-local", "layered"},
        BaselineCase{"heft", "layered"}, BaselineCase{"heft", "forkjoin"},
        BaselineCase{"heft", "chain"}, BaselineCase{"heft", "bag"},
        BaselineCase{"vdce-level", "solver"}),
    [](const auto& info) {
      std::string name = std::string(info.param.scheduler) + "_" +
                         info.param.shape;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_F(SchedFixture, PriorityModesAllProduceFeasibleSchedules) {
  common::Rng rng(23);
  afg::LayeredDagSpec spec;
  spec.tasks = 30;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  for (auto priority : {PriorityMode::kPaperLevels, PriorityMode::kCommLevels,
                        PriorityMode::kFifo}) {
    SchedulingPolicy options;
    options.priority = priority;
    auto table = plan(graph, context, options);
    ASSERT_TRUE(table.has_value());
    expect_feasible(graph, *table);
  }
}

TEST_F(SchedFixture, NeighborsDomainClipsCandidateSites) {
  SchedulerContext wide = context;
  wide.k_nearest = 10;  // ask for everything
  SchedulingPolicy options;
  options.access = db::AccessDomain::kNeighbors;
  auto sites = candidate_site_set(wide, options);
  EXPECT_LE(sites.size(), 3u);  // local + at most 2 neighbours
  options.access = db::AccessDomain::kGlobal;
  EXPECT_EQ(candidate_site_set(wide, options).size(), 3u);  // all 3 testbed sites
  options.access = db::AccessDomain::kLocalSite;
  EXPECT_EQ(candidate_site_set(wide, options).size(), 1u);
}

TEST_F(SchedFixture, EveryStrategyPlansOfflineUnderItsOwnName) {
  afg::Afg graph = make_shape("layered");
  for (const Strategy& row : strategies()) {
    const std::string name(row.name);
    auto table = plan_with(name, graph, context);
    ASSERT_TRUE(table.has_value()) << name << ": " << table.error().message;
    EXPECT_EQ(table->scheduler_name, name);
    expect_feasible(graph, *table);
    if (name == "vdce-local") {
      for (const Assignment& a : table->assignments) {
        EXPECT_EQ(a.site, context.local_site);
      }
    }
  }
}

TEST_F(SchedFixture, FactoryRejectsUnknownName) {
  afg::Afg graph = afg::make_chain(3, 100, 1e4);
  auto table = plan_with("dcp", graph, context);
  ASSERT_FALSE(table.has_value());
  EXPECT_EQ(table.error().code, common::ErrorCode::kInvalidArgument);
}

TEST_F(SchedFixture, HeftCompetitiveWithVdce) {
  // HEFT's comm-aware ranks + insertion placement should be at least
  // roughly as good as the VDCE level scheduler on average.
  double heft_total = 0.0, vdce_total = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    common::Rng rng(seed);
    afg::LayeredDagSpec spec;
    spec.tasks = 40;
    spec.width = 6;
    afg::Afg graph = afg::make_layered_dag(spec, rng);
    auto t1 = plan_with("heft", graph, context);
    auto t2 = plan(graph, context);
    ASSERT_TRUE(t1.has_value() && t2.has_value());
    expect_feasible(graph, *t1);
    heft_total += t1->schedule_length;
    vdce_total += t2->schedule_length;
  }
  EXPECT_LT(heft_total, 1.15 * vdce_total);
}

TEST_F(SchedFixture, VdceBeatsRandomOnAverage) {
  double vdce_total = 0.0, random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    common::Rng rng(seed);
    afg::LayeredDagSpec spec;
    spec.tasks = 50;
    spec.width = 8;
    afg::Afg graph = afg::make_layered_dag(spec, rng);
    auto t1 = plan(graph, context);
    auto t2 = plan_with("random", graph, context, seed);
    ASSERT_TRUE(t1.has_value() && t2.has_value());
    vdce_total += t1->schedule_length;
    random_total += t2->schedule_length;
  }
  EXPECT_LT(vdce_total, random_total);
}

TEST_F(SchedFixture, EverySchedulerIsDeterministic) {
  // Same context + same graph -> byte-identical allocation tables, for
  // every algorithm (the reproducibility EXPERIMENTS.md promises).
  afg::Afg graph = make_shape("layered");
  for (const Strategy& row : strategies()) {
    const std::string name(row.name);
    auto t1 = plan_with(name, graph, context, 9);
    auto t2 = plan_with(name, graph, context, 9);
    ASSERT_TRUE(t1.has_value() && t2.has_value()) << name;
    ASSERT_EQ(t1->assignments.size(), t2->assignments.size()) << name;
    EXPECT_DOUBLE_EQ(t1->schedule_length, t2->schedule_length) << name;
    for (std::size_t i = 0; i < t1->assignments.size(); ++i) {
      EXPECT_EQ(t1->assignments[i].hosts, t2->assignments[i].hosts) << name;
      EXPECT_DOUBLE_EQ(t1->assignments[i].est_start,
                       t2->assignments[i].est_start)
          << name;
    }
  }
}

TEST_F(SchedFixture, RandomIsSeedDeterministic) {
  afg::Afg graph = make_shape("layered");
  auto t1 = plan_with("random", graph, context, 5);
  auto t2 = plan_with("random", graph, context, 5);
  ASSERT_TRUE(t1.has_value() && t2.has_value());
  EXPECT_DOUBLE_EQ(t1->schedule_length, t2->schedule_length);
}

TEST_F(SchedFixture, TableDescribeMentionsEveryTask) {
  afg::Afg graph = afg::make_linear_solver_shape(1e5);
  auto table = plan(graph, context);
  ASSERT_TRUE(table.has_value());
  std::string text = table->describe(graph);
  for (const afg::TaskNode& t : graph.tasks()) {
    EXPECT_NE(text.find(t.instance_name), std::string::npos);
  }
}

TEST_F(SchedFixture, TableLookupHelpers) {
  afg::Afg graph = afg::make_chain(3, 100, 1e4);
  auto table = plan(graph, context);
  ASSERT_TRUE(table.has_value());
  EXPECT_TRUE(table->find(common::TaskId(1)).has_value());
  EXPECT_FALSE(table->find(common::TaskId(99)).has_value());
  EXPECT_FALSE(table->hosts_used().empty());
  EXPECT_FALSE(table->sites_used().empty());
}

}  // namespace
}  // namespace vdce::sched
