// vdce::scale tests: generator determinism and structure, ScaleSpec
// environment bring-up, whole-system trace determinism at 10x the testbed
// topology size, and AFG DSL round-trip / malformed-input fuzzing over
// generated workloads.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "editor/dsl.hpp"
#include "scale/generate.hpp"
#include "vdce/environment.hpp"

namespace vdce {
namespace {

// ---- grid generator --------------------------------------------------------------

TEST(GridGenerator, ShapeMatchesSpec) {
  scale::GridSpec spec;
  spec.sites = 5;
  spec.hosts_per_site = 7;
  spec.group_size = 3;
  spec.seed = 42;
  net::Topology t = scale::make_grid(spec);
  EXPECT_EQ(t.site_count(), 5u);
  EXPECT_EQ(t.host_count(), 35u);
  for (const net::Site& s : t.sites()) {
    EXPECT_EQ(s.hosts.size(), 7u);
    EXPECT_TRUE(s.server.valid());
    // ceil(7 / 3) = 3 groups per site.
    EXPECT_EQ(s.groups.size(), 3u);
  }
  for (const net::Host& h : t.hosts()) {
    EXPECT_GE(h.spec.speed_mflops, spec.min_mflops);
    EXPECT_LE(h.spec.speed_mflops, spec.max_mflops);
    EXPECT_GE(h.spec.memory_mb, 64.0);
    EXPECT_GE(h.state.cpu_load, 0.0);
    EXPECT_FALSE(h.spec.name.empty());
    EXPECT_FALSE(h.spec.arch.empty());
    EXPECT_TRUE(h.state.up);
  }
}

TEST(GridGenerator, DeterministicForEqualSpecs) {
  scale::GridSpec spec;
  spec.sites = 6;
  spec.hosts_per_site = 9;
  spec.seed = 7;
  net::Topology a = scale::make_grid(spec);
  net::Topology b = scale::make_grid(spec);
  ASSERT_EQ(a.host_count(), b.host_count());
  for (std::size_t i = 0; i < a.host_count(); ++i) {
    const net::Host& x = a.hosts()[i];
    const net::Host& y = b.hosts()[i];
    EXPECT_EQ(x.spec.name, y.spec.name);
    EXPECT_EQ(x.spec.ip, y.spec.ip);
    EXPECT_EQ(x.spec.arch, y.spec.arch);
    EXPECT_EQ(x.spec.os, y.spec.os);
    EXPECT_EQ(x.spec.machine_type, y.spec.machine_type);
    EXPECT_EQ(x.spec.speed_mflops, y.spec.speed_mflops);
    EXPECT_EQ(x.spec.memory_mb, y.spec.memory_mb);
    EXPECT_EQ(x.state.cpu_load, y.state.cpu_load);
  }
  // Link model identical: every site-pair transfer agrees exactly.
  for (const net::Site& s1 : a.sites()) {
    for (const net::Site& s2 : a.sites()) {
      EXPECT_EQ(a.site_transfer_time(s1.id, s2.id, 1e6),
                b.site_transfer_time(s1.id, s2.id, 1e6));
    }
  }
}

TEST(GridGenerator, DifferentSeedsDiffer) {
  scale::GridSpec spec;
  spec.seed = 1;
  net::Topology a = scale::make_grid(spec);
  spec.seed = 2;
  net::Topology b = scale::make_grid(spec);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.host_count() && !any_diff; ++i) {
    any_diff = a.hosts()[i].spec.speed_mflops != b.hosts()[i].spec.speed_mflops;
  }
  EXPECT_TRUE(any_diff);
}

// ---- workload generator ----------------------------------------------------------

TEST(WorkloadGenerator, AllShapesProduceValidGraphsOfRequestedSize) {
  for (scale::WorkloadShape shape :
       {scale::WorkloadShape::kLayered, scale::WorkloadShape::kForkJoin,
        scale::WorkloadShape::kRandomDag}) {
    scale::WorkloadSpec spec;
    spec.shape = shape;
    spec.tasks = 48;
    spec.seed = 11;
    afg::Afg graph = scale::make_workload(spec);
    SCOPED_TRACE(scale::to_string(shape));
    EXPECT_TRUE(graph.validate().ok());
    EXPECT_GE(graph.task_count(), 40u);  // fork-join rounds to its shape
    EXPECT_FALSE(graph.entry_tasks().empty());
    EXPECT_FALSE(graph.exit_tasks().empty());
  }
}

TEST(WorkloadGenerator, RandomDagRespectsFanInCap) {
  scale::WorkloadSpec spec;
  spec.shape = scale::WorkloadShape::kRandomDag;
  spec.tasks = 120;
  spec.max_fan_in = 4;
  spec.seed = 99;
  afg::Afg graph = scale::make_workload(spec);
  ASSERT_TRUE(graph.validate().ok());
  EXPECT_EQ(graph.task_count(), 120u);
  for (const afg::TaskNode& t : graph.tasks()) {
    EXPECT_LE(graph.in_degree(t.id), 4u) << t.instance_name;
  }
}

TEST(WorkloadGenerator, DeterministicDslText) {
  scale::WorkloadSpec spec;
  spec.shape = scale::WorkloadShape::kRandomDag;
  spec.tasks = 40;
  spec.parallel_fraction = 0.3;
  spec.seed = 5;
  afg::Afg a = scale::make_workload(spec, "w");
  afg::Afg b = scale::make_workload(spec, "w");
  EXPECT_EQ(editor::write_afg(a), editor::write_afg(b));
}

TEST(CorpusGenerator, ReproducibleAndInRange) {
  scale::CorpusSpec spec;
  auto a = scale::make_corpus(spec);
  auto b = scale::make_corpus(spec);
  ASSERT_EQ(a.size(), spec.cases);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].grid.seed, b[i].grid.seed);
    EXPECT_EQ(a[i].workload.seed, b[i].workload.seed);
    EXPECT_GE(a[i].grid.sites, spec.min_sites);
    EXPECT_LE(a[i].grid.sites, spec.max_sites);
    EXPECT_GE(a[i].workload.tasks, spec.min_tasks);
    EXPECT_LE(a[i].workload.tasks, spec.max_tasks);
  }
}

// ---- ScaleSpec environment bring-up ----------------------------------------------

TEST(ScaleEnvironment, BringsUpAndRunsAWorkload) {
  ScaleSpec spec;
  spec.grid.sites = 3;
  spec.grid.hosts_per_site = 5;
  spec.grid.seed = 12;
  spec.options.runtime.exec_noise_cv = 0.0;
  auto env = VdceEnvironment::make_scale_environment(spec);
  ASSERT_TRUE(env.has_value()) << env.error().to_string();
  EXPECT_EQ((*env)->topology().host_count(), 15u);
  auto session =
      (*env)->login(common::SiteId(0), spec.admin_user, spec.admin_password);
  ASSERT_TRUE(session.has_value()) << session.error().to_string();

  scale::WorkloadSpec w;
  w.shape = scale::WorkloadShape::kLayered;
  w.tasks = 12;
  w.width = 4;
  w.seed = 3;
  afg::Afg graph = scale::make_workload(w, "scale-env-smoke");
  RunOptions run;
  run.real_kernels = false;
  auto report = (*env)->run_application(graph, *session, run);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  EXPECT_TRUE(report->success) << report->failure_reason;
  EXPECT_EQ(report->outcomes.size(), graph.task_count());
}

// ---- determinism regression at 10x topology size ---------------------------------
//
// The seed testbed (campus pair) has 12 hosts; this runs the full
// environment — bring-up, scheduling, execution, daemons — on a generated
// 8x16 grid (128 hosts) and asserts the emitted JSONL trace is
// byte-identical across two runs from the same seed.  Any hidden ordering
// or cache dependence introduced by the scheduler optimisation would show
// up here as a trace diff.

TEST(ScaleDeterminism, TraceIsByteIdenticalAtTenTimesTopologySize) {
  auto run_once = [] {
    ScaleSpec spec;
    spec.grid.sites = 8;
    spec.grid.hosts_per_site = 16;
    spec.grid.seed = 2026;
    spec.options.trace.enabled = true;
    spec.options.runtime.exec_noise_cv = 0.1;  // include the stochastic path
    auto env = VdceEnvironment::make_scale_environment(spec);
    EXPECT_TRUE(env.has_value());
    auto session =
        (*env)->login(common::SiteId(0), spec.admin_user, spec.admin_password);
    EXPECT_TRUE(session.has_value());
    scale::WorkloadSpec w;
    w.shape = scale::WorkloadShape::kRandomDag;
    w.tasks = 48;
    w.seed = 77;
    afg::Afg graph = scale::make_workload(w, "determinism-10x");
    RunOptions run;
    run.real_kernels = false;
    auto report = (*env)->run_application(graph, *session, run);
    EXPECT_TRUE(report.has_value());
    EXPECT_TRUE(report->success);
    return (*env)->trace().to_jsonl();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// ---- AFG DSL round-trip fuzz over generated workloads ----------------------------

void expect_structurally_equal(const afg::Afg& a, const afg::Afg& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    const afg::TaskNode& x = a.tasks()[i];
    const afg::TaskNode& y = b.tasks()[i];
    EXPECT_EQ(x.instance_name, y.instance_name);
    EXPECT_EQ(x.task_name, y.task_name);
    EXPECT_EQ(x.props.mode, y.props.mode);
    EXPECT_EQ(x.props.num_nodes, y.props.num_nodes);
    ASSERT_EQ(x.props.inputs.size(), y.props.inputs.size());
    for (std::size_t p = 0; p < x.props.inputs.size(); ++p) {
      EXPECT_EQ(x.props.inputs[p].dataflow, y.props.inputs[p].dataflow);
      EXPECT_EQ(x.props.inputs[p].path, y.props.inputs[p].path);
    }
  }
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i], b.edges()[i]) << "edge " << i;
  }
}

class ScaleDslFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScaleDslFuzz, GeneratedWorkloadsRoundTripThroughTheDsl) {
  const std::uint64_t seed = GetParam();
  scale::WorkloadSpec spec;
  spec.shape = static_cast<scale::WorkloadShape>(seed % 3);
  spec.tasks = 10 + (seed % 7) * 9;
  spec.width = 3 + seed % 5;
  spec.parallel_fraction = seed % 4 == 0 ? 0.3 : 0.0;
  spec.seed = seed;
  afg::Afg graph = scale::make_workload(spec, "fuzz-" + std::to_string(seed));

  const std::string once = editor::write_afg(graph);
  auto parsed = editor::parse_afg(once);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  expect_structurally_equal(graph, *parsed);
  EXPECT_EQ(editor::write_afg(*parsed), once);
  EXPECT_TRUE(parsed->validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleDslFuzz,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{25}));

TEST(ScaleDslFuzz, MalformedInputsReturnErrorsNotCrashes) {
  // A hand-built corpus of broken documents: every one must come back as a
  // clean Expected error (never a crash, hang, or successful parse of
  // nonsense that validate() would then accept).
  const std::vector<std::string> corpus = {
      "",
      "\n\n\n",
      "garbage",
      "application",
      "application x\n",                             // no task
      "application \"s",                             // unterminated quote
      "task a x {\n}\n",                             // no application line
      "application x\ntask a x {\n  mode wat\n}\n",  // bad mode
      "application x\ntask a x {\n  nodes -3\n}\n",
      "application x\ntask a x {\n  nodes many\n}\n",
      "application x\ntask a x {\n  input file\n}\n",
      "application x\ntask a x {\n  output data notanumber\n}\n",
      "application x\ntask a x {\n",                   // unterminated block
      "application x\nconnect a:0 -> b:0\n",           // unknown tasks
      "application x\ntask a x {\n  mode sequential\n}\n"
      "connect a:7 -> a:0\n",                          // bad port, self edge
      "application x\ntask a x {\n  mode parallel\n}\n",  // parallel, no nodes
      std::string(4096, '{'),
      std::string("application x\n") + std::string(1000, '\xff'),
  };
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    auto r = editor::parse_afg(corpus[i]);
    if (r.has_value()) {
      // A lenient parse is acceptable only if the result is a coherent AFG.
      EXPECT_TRUE(r->validate().ok()) << "corpus entry " << i;
    } else {
      EXPECT_FALSE(r.error().message.empty()) << "corpus entry " << i;
    }
  }

  // Truncation sweep: cutting a valid document at any byte must never crash
  // the parser, and any accepted prefix must be a coherent AFG.
  scale::WorkloadSpec spec;
  spec.tasks = 12;
  spec.seed = 4;
  const std::string valid = editor::write_afg(scale::make_workload(spec));
  for (std::size_t cut = 0; cut < valid.size(); cut += 7) {
    auto r = editor::parse_afg(valid.substr(0, cut));
    if (!r.has_value()) {
      EXPECT_FALSE(r.error().message.empty()) << "cut at byte " << cut;
    } else {
      EXPECT_TRUE(r->validate().ok()) << "cut at byte " << cut;
    }
  }
}

}  // namespace
}  // namespace vdce
