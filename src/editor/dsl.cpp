#include "editor/dsl.hpp"

#include <cassert>

#include "common/strings.hpp"

namespace vdce::editor {

namespace {

std::string quote(const std::string& s) { return "\"" + s + "\""; }

common::Error line_error(std::size_t line_no, const std::string& what) {
  return common::Error{common::ErrorCode::kParseError,
                       "line " + std::to_string(line_no) + ": " + what};
}

/// Parse "Name:port" into its pieces.
common::Expected<std::pair<std::string, int>> parse_endpoint(
    const std::string& text, std::size_t line_no) {
  auto colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 >= text.size()) {
    return line_error(line_no, "expected 'task:port', got '" + text + "'");
  }
  auto port = common::parse_int(text.substr(colon + 1));
  if (!port || *port < 0) {
    return line_error(line_no, "bad port in '" + text + "'");
  }
  return std::make_pair(text.substr(0, colon), static_cast<int>(*port));
}

}  // namespace

std::string write_afg(const afg::Afg& graph) {
  std::string out = "application " + quote(graph.name()) + "\n";

  for (const afg::TaskNode& t : graph.tasks()) {
    out += "\ntask " + t.instance_name + " " + t.task_name + " {\n";
    out += "  mode " + std::string(to_string(t.props.mode)) + "\n";
    out += "  nodes " + std::to_string(t.props.num_nodes) + "\n";
    out += "  machine_type " +
           (t.props.preferred_machine_type.empty()
                ? "any"
                : quote(t.props.preferred_machine_type)) +
           "\n";
    out += "  machine " +
           (t.props.preferred_machine.empty() ? "any"
                                              : quote(t.props.preferred_machine)) +
           "\n";
    for (const afg::FileSpec& f : t.props.inputs) {
      if (f.dataflow) {
        out += "  input dataflow\n";
      } else if (!f.path.empty()) {
        out += "  input file " + f.path + " " +
               common::format_double(f.size_bytes, 0) + "\n";
      } else {
        out += "  input none\n";
      }
    }
    for (const afg::FileSpec& f : t.props.outputs) {
      if (!f.path.empty()) {
        out += "  output file " + f.path + " " +
               common::format_double(f.size_bytes, 0) + "\n";
      } else {
        out += "  output data " + common::format_double(f.size_bytes, 0) + "\n";
      }
    }
    for (const std::string& s : t.props.services) {
      out += "  service " + s + "\n";
    }
    out += "}\n";
  }

  if (!graph.edges().empty()) out += "\n";
  for (const afg::Edge& e : graph.edges()) {
    out += "connect " + graph.task(e.from).instance_name + ":" +
           std::to_string(e.from_port) + " -> " +
           graph.task(e.to).instance_name + ":" + std::to_string(e.to_port) +
           "\n";
  }
  return out;
}

common::Expected<afg::Afg> parse_afg(const std::string& text) {
  afg::Afg graph;
  bool saw_application = false;

  // Current task block being accumulated, if any.
  bool in_task = false;
  std::string task_instance;
  std::string task_impl;
  afg::TaskProperties props;
  std::size_t task_line = 0;

  struct PendingEdge {
    std::string from;
    int from_port;
    std::string to;
    int to_port;
    std::size_t line_no;
  };
  std::vector<PendingEdge> pending_edges;

  auto strip_quotes = [](std::string s) {
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
      return s.substr(1, s.size() - 2);
    }
    return s;
  };

  const auto lines = common::split(text, '\n');
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t line_no = i + 1;
    std::string_view line = common::trim(lines[i]);
    if (line.empty() || line.front() == '#') continue;

    auto tokens = common::split_ws(line);
    const std::string& head = tokens[0];

    if (head == "application") {
      if (tokens.size() < 2) return line_error(line_no, "application needs a name");
      // Re-join so quoted names may contain spaces.
      std::string name(common::trim(line.substr(std::string("application").size())));
      if (name.front() == '"' && (name.size() < 2 || name.back() != '"')) {
        return line_error(line_no, "unterminated quote in application name");
      }
      graph.set_name(strip_quotes(name));
      saw_application = true;
      continue;
    }

    if (head == "task") {
      if (in_task) return line_error(line_no, "nested task block");
      if (tokens.size() != 4 || tokens[3] != "{") {
        return line_error(line_no, "expected: task <instance> <impl> {");
      }
      in_task = true;
      task_instance = tokens[1];
      task_impl = tokens[2];
      props = afg::TaskProperties{};
      task_line = line_no;
      continue;
    }

    if (head == "}") {
      if (!in_task) return line_error(line_no, "unmatched '}'");
      auto id = graph.add_task(task_instance, task_impl, std::move(props));
      if (!id) return line_error(task_line, id.error().message);
      in_task = false;
      continue;
    }

    if (in_task) {
      if (head == "mode") {
        if (tokens.size() != 2) return line_error(line_no, "mode needs a value");
        if (tokens[1] == "sequential") {
          props.mode = afg::ComputationMode::kSequential;
        } else if (tokens[1] == "parallel") {
          props.mode = afg::ComputationMode::kParallel;
        } else {
          return line_error(line_no, "bad mode '" + tokens[1] + "'");
        }
      } else if (head == "nodes") {
        if (tokens.size() != 2) return line_error(line_no, "nodes needs a count");
        auto n = common::parse_int(tokens[1]);
        if (!n || *n < 1) return line_error(line_no, "bad node count");
        props.num_nodes = static_cast<int>(*n);
      } else if (head == "machine_type") {
        if (tokens.size() < 2) return line_error(line_no, "machine_type needs a value");
        std::string v(common::trim(line.substr(head.size())));
        props.preferred_machine_type = (v == "any") ? "" : strip_quotes(v);
      } else if (head == "machine") {
        if (tokens.size() < 2) return line_error(line_no, "machine needs a value");
        std::string v(common::trim(line.substr(head.size())));
        props.preferred_machine = (v == "any") ? "" : strip_quotes(v);
      } else if (head == "input") {
        if (tokens.size() == 2 && tokens[1] == "dataflow") {
          props.inputs.push_back(afg::FileSpec{"", 0.0, true});
        } else if (tokens.size() == 2 && tokens[1] == "none") {
          props.inputs.push_back(afg::FileSpec{"", 0.0, false});
        } else if (tokens.size() == 4 && tokens[1] == "file") {
          auto size = common::parse_double(tokens[3]);
          if (!size || *size < 0) return line_error(line_no, "bad input size");
          props.inputs.push_back(afg::FileSpec{tokens[2], *size, false});
        } else {
          return line_error(line_no,
                            "expected: input dataflow | input none | "
                            "input file <path> <bytes>");
        }
      } else if (head == "output") {
        if (tokens.size() == 3 && tokens[1] == "data") {
          auto size = common::parse_double(tokens[2]);
          if (!size || *size < 0) return line_error(line_no, "bad output size");
          props.outputs.push_back(afg::FileSpec{"", *size, false});
        } else if (tokens.size() == 4 && tokens[1] == "file") {
          auto size = common::parse_double(tokens[3]);
          if (!size || *size < 0) return line_error(line_no, "bad output size");
          props.outputs.push_back(afg::FileSpec{tokens[2], *size, false});
        } else {
          return line_error(
              line_no, "expected: output data <bytes> | output file <path> <bytes>");
        }
      } else if (head == "service") {
        if (tokens.size() != 2) return line_error(line_no, "service needs a name");
        props.services.push_back(tokens[1]);
      } else {
        return line_error(line_no, "unknown task property '" + head + "'");
      }
      continue;
    }

    if (head == "connect") {
      if (tokens.size() != 4 || tokens[2] != "->") {
        return line_error(line_no, "expected: connect A:p -> B:q");
      }
      auto from = parse_endpoint(tokens[1], line_no);
      auto to = parse_endpoint(tokens[3], line_no);
      if (!from) return from.error();
      if (!to) return to.error();
      pending_edges.push_back(PendingEdge{from->first, from->second, to->first,
                                          to->second, line_no});
      continue;
    }

    return line_error(line_no, "unknown directive '" + head + "'");
  }

  if (in_task) return line_error(task_line, "unterminated task block");
  if (!saw_application) {
    return common::Error{common::ErrorCode::kParseError,
                         "missing 'application' line"};
  }
  if (graph.task_count() == 0) {
    return common::Error{common::ErrorCode::kParseError,
                         "application '" + graph.name() + "' has no task"};
  }

  for (const PendingEdge& e : pending_edges) {
    auto from = graph.find_task(e.from);
    auto to = graph.find_task(e.to);
    if (!from) return line_error(e.line_no, from.error().message);
    if (!to) return line_error(e.line_no, to.error().message);
    auto st = graph.connect(*from, e.from_port, *to, e.to_port);
    if (!st.ok()) return line_error(e.line_no, st.error().message);
  }
  return graph;
}

}  // namespace vdce::editor
