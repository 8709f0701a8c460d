#include "editor/panels.hpp"

#include "common/strings.hpp"

namespace vdce::editor {

std::string render_properties_panel(const afg::Afg& graph, afg::TaskId id) {
  const afg::TaskNode& t = graph.task(id);
  std::string out;
  out += "Task <" + t.instance_name + ">  (impl: " + t.task_name + ")\n";
  out += "  Computation Type: <" + std::string(to_string(t.props.mode)) + ">\n";
  out += "  Number of Nodes: " + std::to_string(t.props.num_nodes) + "\n";
  out += "  Preferred Machine Type: <" +
         (t.props.preferred_machine_type.empty() ? "any"
                                                 : t.props.preferred_machine_type) +
         ">\n";
  out += "  Preferred Machine: <" +
         (t.props.preferred_machine.empty() ? "any" : t.props.preferred_machine) +
         ">\n";

  out += "  Input: <" + std::to_string(t.in_ports()) + ">";
  for (const afg::FileSpec& f : t.props.inputs) {
    if (f.dataflow) {
      out += " <dataflow>";
    } else if (!f.path.empty()) {
      out += " <" + f.path + ", SIZE=" + common::format_double(f.size_bytes, 0) + ">";
    } else {
      out += " <none>";
    }
  }
  out += "\n";

  out += "  Output: <" + std::to_string(t.out_ports()) + ">";
  for (int p = 0; p < t.out_ports(); ++p) {
    const afg::FileSpec& f = t.props.outputs[static_cast<std::size_t>(p)];
    if (!f.path.empty()) {
      out += " <" + f.path + ", SIZE=" + common::format_double(f.size_bytes, 0) + ">";
    } else {
      // Name the consumers so the panel shows where data flows.
      std::string consumers;
      for (std::uint32_t idx : graph.out_edge_ids(id)) {
        const afg::Edge& e = graph.edge(idx);
        if (e.from_port != p) continue;
        if (!consumers.empty()) consumers += ", ";
        consumers += graph.task(e.to).instance_name;
      }
      out += " <data";
      if (f.size_bytes > 0) {
        out += ", SIZE=" + common::format_double(f.size_bytes, 0);
      }
      if (!consumers.empty()) out += " -> " + consumers;
      out += ">";
    }
  }
  out += "\n";

  if (!t.props.services.empty()) {
    out += "  Services: " + common::join(t.props.services, ", ") + "\n";
  }
  return out;
}

std::string render_afg_summary(const afg::Afg& graph) {
  std::string out = "Application Flow Graph: " + graph.name() + "\n";
  out += "  tasks: " + std::to_string(graph.task_count()) +
         ", edges: " + std::to_string(graph.edges().size()) + "\n";
  for (const afg::TaskNode& t : graph.tasks()) {
    out += "  [" + std::to_string(t.id.value()) + "] " + t.instance_name +
           " (" + t.task_name + ", " + to_string(t.props.mode);
    if (t.props.mode == afg::ComputationMode::kParallel) {
      out += " x" + std::to_string(t.props.num_nodes);
    }
    out += ")";
    auto children = graph.children(t.id);
    if (!children.empty()) {
      out += " ->";
      for (afg::TaskId c : children) out += " " + graph.task(c).instance_name;
    }
    out += "\n";
  }
  return out;
}

std::string render_library_menu(const tasklib::TaskRegistry& registry,
                                const std::string& library) {
  std::string out = "Library <" + library + ">:\n";
  for (const std::string& name : registry.tasks_in_library(library)) {
    auto perf = registry.perf(name);
    out += "  " + name;
    if (perf) {
      out += "  (" + common::format_double(perf->computation_mflop, 0) +
             " MFLOP, base " + common::format_double(perf->base_exec_time, 2) +
             "s, mem " + common::format_double(perf->required_memory_mb, 0) +
             "MB)";
    }
    out += "\n";
  }
  return out;
}

}  // namespace vdce::editor
