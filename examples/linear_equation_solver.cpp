// Figure 1 end-to-end: the Linear Equation Solver application.
//
// Reproduces the paper's flagship example with *real* matrix kernels: the
// user stages matrix_A.dat, matrix_S.dat and vector_b.dat in their VDCE
// file space and draws the Figure-1 AFG — Matrix_Multiplication
// (preconditioning A' = S·A, with S the identity) feeding LU_Decomposition
// and the forward/backward substitutions.  The program prints the flow
// graph and every task-properties panel, both of Figure 1's among them,
// then the library menu and the saved .afg, and the runtime executes the
// graph across the simulated testbed.  At the end it checks A·x = b against
// the value that actually flowed through the Data Managers.
#include <cstdio>
#include <cstdlib>

#include "vdce/vdce.hpp"

namespace {

/// Wire `src` to `dst`, or print why not and exit 1.
void link_or_exit(vdce::editor::AppBuilder& app,
                  const vdce::editor::TaskHandle& src,
                  const vdce::editor::TaskHandle& dst) {
  if (auto port = app.link(src, dst); !port) {
    std::fprintf(stderr, "link failed: %s\n",
                 port.error().to_string().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace vdce;

  VdceEnvironment env(make_campus_pair());
  env.bring_up();
  env.add_user("user_k", "secret");
  auto session = env.login(common::SiteId(0), "user_k", "secret").value();

  // ---- the user's input files (I/O service object store) -----------------
  common::Rng rng(1997);
  const std::size_t n = 48;
  tasklib::Matrix a = tasklib::Matrix::random_diag_dominant(n, rng);
  tasklib::Matrix scale = tasklib::Matrix::identity(n);
  tasklib::Vector b(n);
  for (double& v : b) v = rng.uniform(-3, 3);
  env.store().put("/users/VDCE/user_k/matrix_A.dat", tasklib::Value(a),
                  124880);
  env.store().put("/users/VDCE/user_k/matrix_S.dat", tasklib::Value(scale),
                  124880);
  env.store().put("/users/VDCE/user_k/vector_b.dat", tasklib::Value(b),
                  static_cast<double>(n * sizeof(double)));

  // ---- Figure 1: the application flow graph -----------------------------
  editor::AppBuilder app("Linear Equation Solver");
  auto mm = app.task("Matrix_Multiplication", "matrix.multiply")
                .sequential()
                .prefer_machine_type("SUN solaris")
                .input_file("/users/VDCE/user_k/matrix_S.dat", 124880)
                .input_file("/users/VDCE/user_k/matrix_A.dat", 124880)
                .output_data(124880);
  auto lu = app.task("LU_Decomposition", "matrix.lu_decomposition")
                .parallel(2)
                .output_data(124880);
  auto fwd = app.task("Forward_Substitution", "matrix.forward_substitution")
                 .output_data(124880);
  auto bwd = app.task("Backward_Substitution", "matrix.backward_substitution")
                 .output_file("/users/VDCE/user_k/vector_X.dat",
                              static_cast<double>(n * sizeof(double)));
  link_or_exit(app, mm, lu);
  link_or_exit(app, lu, fwd);
  fwd.input_file("/users/VDCE/user_k/vector_b.dat",
                 static_cast<double>(n * sizeof(double)));
  link_or_exit(app, fwd, bwd);
  afg::Afg graph = app.build().value();

  // The editor's views: flow graph + per-task properties panels.
  std::puts(editor::render_afg_summary(graph).c_str());
  std::puts("TASK PROPERTIES WINDOWS (cf. paper Figure 1):\n");
  for (const afg::TaskNode& t : graph.tasks()) {
    std::puts(editor::render_properties_panel(graph, t.id).c_str());
  }

  // The menu the task was picked from.
  std::puts(editor::render_library_menu(env.registry(), "matrix").c_str());

  // The on-disk form of the application (AFG DSL round-trip).
  std::puts("--- saved application (.afg) ---");
  std::puts(editor::write_afg(graph).c_str());

  // ---- schedule + execute -------------------------------------------------
  auto table = env.schedule(graph, session);
  if (!table) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 table.error().to_string().c_str());
    return 1;
  }
  std::puts(table->describe(graph).c_str());

  auto report = env.execute_with_table(graph, *table, session, {});
  if (!report || !report->success) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report ? report->failure_reason.c_str()
                        : report.error().to_string().c_str());
    return 1;
  }
  std::puts(report->describe(graph).c_str());

  // ---- verify the answer that flowed through the Data Managers ------------
  auto bwd_id = graph.find_task("Backward_Substitution").value();
  auto x = std::any_cast<tasklib::Vector>(
      report->exit_outputs.at(bwd_id.value()));
  // S is the identity, so the pipeline solved A x = b.
  double residual = tasklib::residual_inf(a, x, b);
  std::printf("verification: ||A x - b||_inf = %.3e (%s)\n", residual,
              residual < 1e-8 ? "OK" : "FAILED");
  return residual < 1e-8 ? 0 : 1;
}
