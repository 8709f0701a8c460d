// Unit tests for the Application Editor substitute: builder, DSL, panels.
#include <gtest/gtest.h>

#include "editor/builder.hpp"
#include "editor/dsl.hpp"
#include "editor/panels.hpp"
#include "tasklib/registry.hpp"

namespace vdce::editor {
namespace {

TEST(Builder, FluentTaskConfiguration) {
  AppBuilder app("demo");
  auto lu = app.task("LU", "matrix.lu_decomposition")
                .parallel(2)
                .prefer_machine_type("SUN solaris")
                .input_file("/users/VDCE/user_k/matrix_A.dat", 124880)
                .output_data(8e5)
                .request_service("visualization");
  const afg::TaskNode& node = app.graph().task(lu.id());
  EXPECT_EQ(node.props.mode, afg::ComputationMode::kParallel);
  EXPECT_EQ(node.props.num_nodes, 2);
  EXPECT_EQ(node.props.preferred_machine_type, "SUN solaris");
  ASSERT_EQ(node.in_ports(), 1);
  EXPECT_DOUBLE_EQ(node.props.inputs[0].size_bytes, 124880.0);
  EXPECT_EQ(node.props.services.size(), 1u);
}

TEST(Builder, LinkAppendsDataflowPort) {
  AppBuilder app("demo");
  auto a = app.task("a", "synthetic.w100").output_data(1000);
  auto b = app.task("b", "synthetic.w100");
  auto port = app.link(a, b);
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 0);
  auto port2 = app.link(a, b);  // second edge gets the next port
  ASSERT_TRUE(port2.has_value());
  EXPECT_EQ(*port2, 1);
  auto graph = app.build();
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->edges().size(), 2u);
}

TEST(Builder, LinkCreatesDefaultOutputPort) {
  AppBuilder app("demo");
  auto a = app.task("a", "synthetic.w100");  // no explicit output
  auto b = app.task("b", "synthetic.w100");
  ASSERT_TRUE(app.link(a, b).has_value());
  EXPECT_EQ(app.graph().task(a.id()).out_ports(), 1);
}

TEST(Builder, BuildValidates) {
  AppBuilder app("demo");
  EXPECT_FALSE(app.build().has_value());  // empty graph
}

TEST(Builder, DuplicateInstanceViaTryTask) {
  AppBuilder app("demo");
  (void)app.task("a", "x");
  EXPECT_FALSE(app.try_task("a", "y").has_value());
}

TEST(Builder, SequentialResetsNodes) {
  AppBuilder app("demo");
  auto t = app.task("a", "x").parallel(4).sequential();
  EXPECT_EQ(app.graph().task(t.id()).props.num_nodes, 1);
}

// ---- DSL ---------------------------------------------------------------------

const char* kSolverDsl = R"(
# Figure 1: Linear Equation Solver
application "Linear Equation Solver"

task LU_Decomposition matrix.lu_decomposition {
  mode parallel
  nodes 2
  machine_type any
  machine any
  input file /users/VDCE/user_k/matrix_A.dat 124880
  output data 800000
}

task Matrix_Multiplication matrix.multiply {
  mode sequential
  nodes 1
  machine_type "SUN solaris"
  machine "hunding.top.cis.syr.edu"
  input file /users/VDCE/user_k/matrix_B.dat 124880
  input file /users/VDCE/user_k/matrix_C.dat 124880
  output file /users/VDCE/user_k/vector_X.dat 8000
}

connect LU_Decomposition:0 -> Matrix_Multiplication:0
)";

TEST(Dsl, ParsesFigure1Panels) {
  auto graph = parse_afg(kSolverDsl);
  ASSERT_TRUE(graph.has_value()) << graph.error().message;
  EXPECT_EQ(graph->name(), "Linear Equation Solver");
  EXPECT_EQ(graph->task_count(), 2u);
  auto lu = graph->find_task("LU_Decomposition").value();
  EXPECT_EQ(graph->task(lu).props.mode, afg::ComputationMode::kParallel);
  EXPECT_EQ(graph->task(lu).props.num_nodes, 2);
  auto mm = graph->find_task("Matrix_Multiplication").value();
  EXPECT_EQ(graph->task(mm).props.preferred_machine_type, "SUN solaris");
  EXPECT_EQ(graph->task(mm).props.preferred_machine, "hunding.top.cis.syr.edu");
  ASSERT_EQ(graph->edges().size(), 1u);
  // The connected port became dataflow.
  EXPECT_TRUE(graph->task(mm).props.inputs[0].dataflow);
  EXPECT_FALSE(graph->task(mm).props.inputs[1].dataflow);
}

TEST(Dsl, RoundTripPreservesStructure) {
  auto original = parse_afg(kSolverDsl);
  ASSERT_TRUE(original.has_value());
  std::string text = write_afg(*original);
  auto reparsed = parse_afg(text);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().message;
  EXPECT_EQ(reparsed->name(), original->name());
  EXPECT_EQ(reparsed->task_count(), original->task_count());
  ASSERT_EQ(reparsed->edges().size(), original->edges().size());
  for (std::size_t i = 0; i < original->edges().size(); ++i) {
    EXPECT_EQ(reparsed->edges()[i], original->edges()[i]);
  }
  for (const afg::TaskNode& t : original->tasks()) {
    auto id = reparsed->find_task(t.instance_name);
    ASSERT_TRUE(id.has_value());
    const afg::TaskNode& r = reparsed->task(*id);
    EXPECT_EQ(r.task_name, t.task_name);
    EXPECT_EQ(r.props.mode, t.props.mode);
    EXPECT_EQ(r.props.num_nodes, t.props.num_nodes);
    EXPECT_EQ(r.props.preferred_machine, t.props.preferred_machine);
    EXPECT_EQ(r.in_ports(), t.in_ports());
    EXPECT_EQ(r.out_ports(), t.out_ports());
  }
}

TEST(Dsl, ErrorsCarryLineNumbers) {
  auto missing_app = parse_afg("task a x {\n}\n");
  ASSERT_FALSE(missing_app.has_value());

  auto bad_mode = parse_afg(
      "application x\ntask a impl {\n  mode sideways\n}\n");
  ASSERT_FALSE(bad_mode.has_value());
  EXPECT_NE(bad_mode.error().message.find("line 3"), std::string::npos);

  auto bad_connect = parse_afg(
      "application x\ntask a impl {\n  output data 10\n}\nconnect a:0 b:0\n");
  ASSERT_FALSE(bad_connect.has_value());
  EXPECT_NE(bad_connect.error().message.find("line 5"), std::string::npos);
}

TEST(Dsl, RejectsUnterminatedBlock) {
  auto r = parse_afg("application x\ntask a impl {\n  mode sequential\n");
  ASSERT_FALSE(r.has_value());
}

TEST(Dsl, RejectsUnknownDirective) {
  auto r = parse_afg("application x\nfrobnicate\n");
  ASSERT_FALSE(r.has_value());
}

TEST(Dsl, RejectsConnectToUnknownTask) {
  auto r = parse_afg(
      "application x\ntask a impl {\n  output data 1\n}\n"
      "connect a:0 -> ghost:0\n");
  ASSERT_FALSE(r.has_value());
}

TEST(Dsl, CommentsAndBlankLinesIgnored) {
  auto r = parse_afg(
      "# leading comment\n\napplication x\n\n# another\ntask a impl {\n}\n");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->task_count(), 1u);
}

// ---- panels ---------------------------------------------------------------------

TEST(Panels, PropertiesPanelMentionsFigure1Fields) {
  auto graph = parse_afg(kSolverDsl);
  ASSERT_TRUE(graph.has_value());
  auto lu = graph->find_task("LU_Decomposition").value();
  std::string panel = render_properties_panel(*graph, lu);
  EXPECT_NE(panel.find("Task <LU_Decomposition>"), std::string::npos);
  EXPECT_NE(panel.find("Computation Type: <parallel>"), std::string::npos);
  EXPECT_NE(panel.find("Number of Nodes: 2"), std::string::npos);
  EXPECT_NE(panel.find("Preferred Machine Type: <any>"), std::string::npos);
  EXPECT_NE(panel.find("matrix_A.dat, SIZE=124880"), std::string::npos);
}

TEST(Panels, PanelShowsDataflowConsumers) {
  auto graph = parse_afg(kSolverDsl);
  auto lu = graph->find_task("LU_Decomposition").value();
  std::string panel = render_properties_panel(*graph, lu);
  EXPECT_NE(panel.find("Matrix_Multiplication"), std::string::npos);
}

TEST(Panels, AfgSummaryListsTasksAndEdges) {
  auto graph = parse_afg(kSolverDsl);
  std::string summary = render_afg_summary(*graph);
  EXPECT_NE(summary.find("tasks: 2, edges: 1"), std::string::npos);
  EXPECT_NE(summary.find("LU_Decomposition"), std::string::npos);
  EXPECT_NE(summary.find("-> Matrix_Multiplication"), std::string::npos);
}

TEST(Panels, LibraryMenuListsTasks) {
  tasklib::TaskRegistry registry;
  tasklib::register_standard_libraries(registry);
  std::string menu = render_library_menu(registry, "matrix");
  EXPECT_NE(menu.find("matrix.lu_decomposition"), std::string::npos);
  EXPECT_NE(menu.find("MFLOP"), std::string::npos);
}

}  // namespace
}  // namespace vdce::editor
