// Unit + property tests for the application flow graph: structure,
// validation, level computation, generators.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "afg/generate.hpp"
#include "afg/graph.hpp"
#include "afg/levels.hpp"
#include "common/rng.hpp"
#include "editor/dsl.hpp"
#include "scale/generate.hpp"

namespace vdce::afg {
namespace {

TaskProperties props(int in, int out = 1) {
  TaskProperties p;
  p.inputs.resize(static_cast<std::size_t>(in));
  for (int i = 0; i < out; ++i) p.outputs.push_back(FileSpec{"", 1000, false});
  return p;
}

/// The Figure-1 diamond: lu, mm -> fwd -> bwd.
Afg diamond() {
  Afg g("diamond");
  auto lu = g.add_task("lu", "synthetic.w2000", props(0));
  auto mm = g.add_task("mm", "synthetic.w1500", props(0));
  auto fwd = g.add_task("fwd", "synthetic.w400", props(2));
  auto bwd = g.add_task("bwd", "synthetic.w400", props(1));
  EXPECT_TRUE(g.connect(*lu, 0, *fwd, 0).ok());
  EXPECT_TRUE(g.connect(*mm, 0, *fwd, 1).ok());
  EXPECT_TRUE(g.connect(*fwd, 0, *bwd, 0).ok());
  return g;
}

TEST(Afg, AddTaskAssignsSequentialIds) {
  Afg g("t");
  auto a = g.add_task("a", "x", props(0));
  auto b = g.add_task("b", "x", props(0));
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(b->value(), 1u);
  EXPECT_EQ(g.task_count(), 2u);
}

TEST(Afg, DuplicateInstanceRejected) {
  Afg g("t");
  (void)g.add_task("a", "x", props(0));
  auto dup = g.add_task("a", "y", props(0));
  ASSERT_FALSE(dup.has_value());
  EXPECT_EQ(dup.error().code, common::ErrorCode::kAlreadyExists);
}

TEST(Afg, SequentialTaskCannotRequestNodes) {
  Afg g("t");
  TaskProperties p = props(0);
  p.mode = ComputationMode::kSequential;
  p.num_nodes = 4;
  EXPECT_FALSE(g.add_task("a", "x", p).has_value());
  p.mode = ComputationMode::kParallel;
  EXPECT_TRUE(g.add_task("b", "x", p).has_value());
}

TEST(Afg, ConnectValidatesPorts) {
  Afg g("t");
  auto a = g.add_task("a", "x", props(0, 1));
  auto b = g.add_task("b", "x", props(1));
  EXPECT_FALSE(g.connect(*a, 1, *b, 0).ok());   // no output port 1
  EXPECT_FALSE(g.connect(*a, 0, *b, 7).ok());   // no input port 7
  EXPECT_FALSE(g.connect(*a, 0, *a, 0).ok());   // self loop
  EXPECT_TRUE(g.connect(*a, 0, *b, 0).ok());
  EXPECT_FALSE(g.connect(*a, 0, *b, 0).ok());   // port already fed
}

TEST(Afg, ConnectMarksDataflow) {
  Afg g("t");
  auto a = g.add_task("a", "x", props(0));
  TaskProperties p = props(1);
  p.inputs[0] = FileSpec{"/data/file.dat", 500, false};
  auto b = g.add_task("b", "x", p);
  ASSERT_TRUE(g.connect(*a, 0, *b, 0).ok());
  EXPECT_TRUE(g.task(*b).props.inputs[0].dataflow);
  EXPECT_TRUE(g.task(*b).props.inputs[0].path.empty());
}

TEST(Afg, ParentsChildrenEntryExit) {
  Afg g = diamond();
  auto fwd = g.find_task("fwd").value();
  auto parents = g.parents(fwd);
  EXPECT_EQ(parents.size(), 2u);
  EXPECT_EQ(g.children(fwd).size(), 1u);
  auto entries = g.entry_tasks();
  EXPECT_EQ(entries.size(), 2u);
  auto exits = g.exit_tasks();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(g.task(exits[0]).instance_name, "bwd");
}

TEST(Afg, RequiresInputSemantics) {
  Afg g("t");
  auto bare = g.add_task("bare", "x", props(0));
  TaskProperties with_file = props(1);
  with_file.inputs[0] = FileSpec{"/f", 10, false};
  auto file_task = g.add_task("file", "x", with_file);
  EXPECT_FALSE(g.requires_input(*bare));
  EXPECT_TRUE(g.requires_input(*file_task));
}

TEST(Afg, EdgeBytesFromProducerPort) {
  Afg g("t");
  TaskProperties p = props(0);
  p.outputs[0].size_bytes = 12345;
  auto a = g.add_task("a", "x", p);
  auto b = g.add_task("b", "x", props(1));
  ASSERT_TRUE(g.connect(*a, 0, *b, 0).ok());
  EXPECT_DOUBLE_EQ(g.edge_bytes(g.edges()[0]), 12345.0);
}

TEST(Afg, TopologicalOrderRespectsEdges) {
  Afg g = diamond();
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order->size(); ++i) {
    position[(*order)[i].value()] = i;
  }
  for (const Edge& e : g.edges()) {
    EXPECT_LT(position[e.from.value()], position[e.to.value()]);
  }
}

TEST(Afg, ValidateDetectsEmptyGraph) {
  Afg g("empty");
  EXPECT_FALSE(g.validate().ok());
}

TEST(Afg, ValidatePassesForDag) { EXPECT_TRUE(diamond().validate().ok()); }

TEST(Afg, FindTask) {
  Afg g = diamond();
  EXPECT_TRUE(g.find_task("lu").has_value());
  EXPECT_FALSE(g.find_task("nope").has_value());
}

// ---- instance-name index -------------------------------------------------------

TEST(Afg, RejectedAddTaskLeavesNameFree) {
  Afg g("t");
  TaskProperties no_nodes = props(0);
  no_nodes.num_nodes = 0;
  EXPECT_FALSE(g.add_task("a", "x", no_nodes).has_value());
  TaskProperties sequential_group = props(0);
  sequential_group.num_nodes = 3;
  EXPECT_FALSE(g.add_task("a", "x", sequential_group).has_value());
  EXPECT_EQ(g.task_count(), 0u);
  EXPECT_FALSE(g.find_task("a").has_value());

  auto a = g.add_task("a", "x", props(0));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(g.find_task("a").value(), *a);
}

TEST(Afg, ErrorOrderIsEmptyNameThenDuplicateThenProperties) {
  Afg g("t");
  TaskProperties bad = props(0);
  bad.num_nodes = 0;
  auto empty = g.add_task("", "x", bad);
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code, common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(empty.error().message, "empty task instance name");

  ASSERT_TRUE(g.add_task("a", "x", props(0)).has_value());
  auto dup = g.add_task("a", "x", bad);
  ASSERT_FALSE(dup.has_value());
  EXPECT_EQ(dup.error().code, common::ErrorCode::kAlreadyExists);
}

std::string padded_name(std::size_t i) {
  std::string digits = std::to_string(i);
  return "instance-" + std::string(5 - digits.size(), '0') + digits;
}

TEST(Afg, DuplicatesCaughtAmongNamesDifferingInTheirLastCharacters) {
  constexpr std::size_t kNames = 10000;
  Afg g("t");
  for (std::size_t i = 0; i < kNames; ++i) {
    ASSERT_TRUE(g.add_task(padded_name(i), "x", props(0)).has_value()) << i;
  }
  for (std::size_t i = 0; i < kNames; ++i) {
    auto dup = g.add_task(padded_name(i), "y", props(0));
    ASSERT_FALSE(dup.has_value()) << i;
    EXPECT_EQ(dup.error().code, common::ErrorCode::kAlreadyExists);
  }
  EXPECT_EQ(g.task_count(), kNames);
  EXPECT_FALSE(g.find_task(padded_name(kNames)).has_value());
}

/// The oracle for find_task: a linear scan over tasks().
std::optional<TaskId> scan_for(const Afg& g, const std::string& name) {
  for (const TaskNode& t : g.tasks()) {
    if (t.instance_name == name) return t.id;
  }
  return std::nullopt;
}

void expect_find_matches_scan(const Afg& g, std::size_t probes) {
  for (std::size_t i = 0; i < probes; ++i) {
    const std::string name = padded_name(i);
    auto found = g.find_task(name);
    auto scanned = scan_for(g, name);
    ASSERT_EQ(found.has_value(), scanned.has_value()) << name;
    if (found) {
      EXPECT_EQ(*found, *scanned) << name;
    }
  }
}

TEST(Afg, FindTaskAgreesWithLinearScanOnCopiesAndMoves) {
  Afg original("t");
  for (std::size_t i = 0; i < 3000; i += 2) {
    ASSERT_TRUE(original.add_task(padded_name(i), "x", props(0)).has_value());
  }
  Afg copy = original;
  // The copy owns its index: adding to it leaves the original unchanged.
  ASSERT_TRUE(copy.add_task(padded_name(1), "x", props(0)).has_value());
  EXPECT_FALSE(original.find_task(padded_name(1)).has_value());

  Afg moved("other");
  ASSERT_TRUE(moved.add_task(padded_name(3), "x", props(0)).has_value());
  moved = Afg(original);
  EXPECT_FALSE(moved.find_task(padded_name(3)).has_value());

  expect_find_matches_scan(original, 3100);
  expect_find_matches_scan(copy, 3100);
  expect_find_matches_scan(moved, 3100);
  // The moved-to graph keeps growing through its index.
  ASSERT_TRUE(moved.add_task(padded_name(3001), "x", props(0)).has_value());
  EXPECT_FALSE(moved.add_task(padded_name(2998), "x", props(0)).has_value());
  expect_find_matches_scan(moved, 3100);
}

// ---- levels --------------------------------------------------------------------

double synth_cost(const TaskNode& node) {
  // "synthetic.w<mflop>" at 100 MFLOPS base.
  auto pos = node.task_name.rfind('w');
  return std::stod(node.task_name.substr(pos + 1)) / 100.0;
}

TEST(Levels, PaperDefinitionOnDiamond) {
  Afg g = diamond();
  auto levels = compute_levels(g, synth_cost);
  ASSERT_TRUE(levels.has_value());
  // bwd: 4; fwd: 4 + 4 = 8; lu: 20 + 8 = 28; mm: 15 + 8 = 23.
  EXPECT_DOUBLE_EQ(levels->of(g.find_task("bwd").value()), 4.0);
  EXPECT_DOUBLE_EQ(levels->of(g.find_task("fwd").value()), 8.0);
  EXPECT_DOUBLE_EQ(levels->of(g.find_task("lu").value()), 28.0);
  EXPECT_DOUBLE_EQ(levels->of(g.find_task("mm").value()), 23.0);
}

TEST(Levels, PriorityOrderDescends) {
  Afg g = diamond();
  auto levels = compute_levels(g, synth_cost);
  auto order = levels->by_priority();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(g.task(order[0]).instance_name, "lu");
  EXPECT_EQ(g.task(order[1]).instance_name, "mm");
  EXPECT_EQ(g.task(order[2]).instance_name, "fwd");
  EXPECT_EQ(g.task(order[3]).instance_name, "bwd");
}

TEST(Levels, CommVariantAddsEdgeCosts) {
  Afg g = diamond();
  auto with_comm = compute_levels_with_comm(g, synth_cost,
                                            [](const Edge&) { return 10.0; });
  ASSERT_TRUE(with_comm.has_value());
  // bwd: 4; fwd: 4 + 10 + 4 = 18; lu: 20 + 10 + 18 = 48.
  EXPECT_DOUBLE_EQ(with_comm->of(g.find_task("fwd").value()), 18.0);
  EXPECT_DOUBLE_EQ(with_comm->of(g.find_task("lu").value()), 48.0);
}

TEST(Levels, ChainLevelsAccumulate) {
  Afg g = make_chain(5, 100, 1000);
  auto levels = compute_levels(g, synth_cost);
  ASSERT_TRUE(levels.has_value());
  // Each stage costs 1s; head of chain has level 5.
  EXPECT_DOUBLE_EQ(levels->of(g.find_task("s0").value()), 5.0);
  EXPECT_DOUBLE_EQ(levels->of(g.find_task("s4").value()), 1.0);
}

// ---- generators (property-style sweeps) ------------------------------------------

struct GeneratorCase {
  std::size_t tasks;
  std::size_t width;
  double density;
  std::uint64_t seed;
};

class LayeredDagProperty : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(LayeredDagProperty, AlwaysValidDagWithExpectedSize) {
  const auto& param = GetParam();
  common::Rng rng(param.seed);
  LayeredDagSpec spec;
  spec.tasks = param.tasks;
  spec.width = param.width;
  spec.edge_density = param.density;
  Afg g = make_layered_dag(spec, rng);
  EXPECT_EQ(g.task_count(), param.tasks);
  EXPECT_TRUE(g.validate().ok());
  // Every non-first-layer task has at least one parent: at most `width`
  // entry tasks exist.
  EXPECT_LE(g.entry_tasks().size(), param.width);
  // Levels computable and positive.
  auto levels = compute_levels(g, synth_cost);
  ASSERT_TRUE(levels.has_value());
  for (double l : levels->level) EXPECT_GT(l, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayeredDagProperty,
    ::testing::Values(GeneratorCase{1, 1, 0.5, 1}, GeneratorCase{10, 3, 0.0, 2},
                      GeneratorCase{50, 5, 0.5, 3},
                      GeneratorCase{100, 8, 1.0, 4},
                      GeneratorCase{200, 4, 0.3, 5},
                      GeneratorCase{400, 16, 0.7, 6}));

TEST(Generators, ForkJoinShape) {
  Afg g = make_fork_join(4, 2, 100, 1000);
  EXPECT_EQ(g.task_count(), 1 + 4 * 2 + 1);
  EXPECT_TRUE(g.validate().ok());
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(g.parents(g.find_task("join").value()).size(), 4u);
}

TEST(Generators, IndependentBagHasNoEdges) {
  Afg g = make_independent(10, 100);
  EXPECT_EQ(g.task_count(), 10u);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_EQ(g.entry_tasks().size(), 10u);
}

TEST(Generators, ReductionTreeShape) {
  Afg g = make_reduction_tree(8, 100, 1000);
  EXPECT_EQ(g.task_count(), 8u + 4 + 2 + 1);
  EXPECT_TRUE(g.validate().ok());
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(g.entry_tasks().size(), 8u);
}

TEST(Generators, ReductionTreeOddLeaves) {
  Afg g = make_reduction_tree(5, 100, 1000);
  EXPECT_TRUE(g.validate().ok());
  EXPECT_EQ(g.exit_tasks().size(), 1u);
}

TEST(Generators, LinearSolverShapeMatchesFigure1) {
  Afg g = make_linear_solver_shape(1e5);
  EXPECT_EQ(g.task_count(), 4u);
  EXPECT_TRUE(g.validate().ok());
  EXPECT_EQ(g.entry_tasks().size(), 2u);
  auto fwd = g.find_task("Forward_Substitution").value();
  EXPECT_EQ(g.parents(fwd).size(), 2u);
}

TEST(Generators, Deterministic) {
  common::Rng a(42), b(42);
  LayeredDagSpec spec;
  spec.tasks = 30;
  Afg g1 = make_layered_dag(spec, a);
  Afg g2 = make_layered_dag(spec, b);
  ASSERT_EQ(g1.task_count(), g2.task_count());
  ASSERT_EQ(g1.edges().size(), g2.edges().size());
  for (std::size_t i = 0; i < g1.edges().size(); ++i) {
    EXPECT_EQ(g1.edges()[i], g2.edges()[i]);
  }
}

// ---- scale::make_workload pinned -------------------------------------------------

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// The DSL text of every generated shape, pinned: a change to the generator
// or to graph construction that moves a single draw, name or edge changes
// a digest here (and with it every perfbench and golden digest).
TEST(WorkloadGenerator, DslDigestsArePinned) {
  struct Case {
    scale::WorkloadShape shape;
    std::uint64_t seed;
    std::size_t tasks;
    const char* digest;
  };
  using scale::WorkloadShape;
  const Case cases[] = {
      {WorkloadShape::kLayered, 1, 250, "ec6778a84945406f"},
      {WorkloadShape::kLayered, 2, 250, "7ffbf7fb23af59e8"},
      {WorkloadShape::kLayered, 9001, 250, "d6d728a41339eb23"},
      {WorkloadShape::kLayered, 1, 4000, "577da4242131989a"},
      {WorkloadShape::kLayered, 2, 4000, "c550b3f47f66b117"},
      {WorkloadShape::kLayered, 9001, 4000, "6a37cafeca088e17"},
      {WorkloadShape::kForkJoin, 1, 250, "ed43978d4b1b252d"},
      {WorkloadShape::kForkJoin, 2, 250, "75feb62f54aaff75"},
      {WorkloadShape::kForkJoin, 9001, 250, "1198b4c0fb8ae657"},
      {WorkloadShape::kForkJoin, 1, 4000, "041f3d9dc439966d"},
      {WorkloadShape::kForkJoin, 2, 4000, "3ce23726cbf8d925"},
      {WorkloadShape::kForkJoin, 9001, 4000, "5ea068722eb9b313"},
      {WorkloadShape::kRandomDag, 1, 250, "c3fc0460a6ef0a8d"},
      {WorkloadShape::kRandomDag, 2, 250, "83de92984b6fd143"},
      {WorkloadShape::kRandomDag, 9001, 250, "ece8534a0ab223fa"},
      {WorkloadShape::kRandomDag, 1, 4000, "46e4af6fd392fefc"},
      {WorkloadShape::kRandomDag, 2, 4000, "c9ff5d64cb8f512b"},
      {WorkloadShape::kRandomDag, 9001, 4000, "a9e6c3ae2077cef3"},
      {WorkloadShape::kParamSweep, 1, 250, "b76d860f8c2810e2"},
      {WorkloadShape::kParamSweep, 2, 250, "f226ff1821d365ac"},
      {WorkloadShape::kParamSweep, 9001, 250, "0a0a36272bcb7346"},
      {WorkloadShape::kParamSweep, 1, 4000, "8a5c7af0b4e02eb2"},
      {WorkloadShape::kParamSweep, 2, 4000, "77a4d2ac0ea7206e"},
      {WorkloadShape::kParamSweep, 9001, 4000, "fd03334801074104"},
  };
  for (const Case& c : cases) {
    scale::WorkloadSpec spec;
    spec.shape = c.shape;
    spec.tasks = c.tasks;
    spec.width = 48;
    spec.parallel_fraction = 0.15;
    spec.seed = c.seed;
    const Afg graph = scale::make_workload(spec, "pinned");
    EXPECT_EQ(fnv1a_hex(editor::write_afg(graph)), c.digest)
        << scale::to_string(c.shape) << " seed " << c.seed << " tasks "
        << c.tasks;
  }
}

}  // namespace
}  // namespace vdce::afg
