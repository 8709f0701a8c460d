// Application flow graph (AFG).
//
// §2 of the paper: building an application is "building the application
// flow graph (AFG), and specifying the task properties of the application."
// An AFG is a DAG whose nodes are task *instances* (each referring to a
// task-library implementation by name) with logical input/output ports, and
// whose edges connect an output port of one task to an input port of
// another.  An input port fed by an edge is marked `dataflow` — exactly the
// marking visible in the paper's Figure 1 task-properties panels
// ("Input: <2> <dataflow, dataflow>").
//
// Task properties mirror the editor's popup panel: computation mode
// (sequential/parallel), number of nodes for parallel tasks, preferred
// machine type / specific machine, and input/output file specs with sizes
// (e.g. "matrix_A.dat, SIZE=124.88K" in Figure 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"

namespace vdce::afg {

using common::TaskId;

enum class ComputationMode { kSequential, kParallel };

constexpr const char* to_string(ComputationMode m) {
  return m == ComputationMode::kSequential ? "sequential" : "parallel";
}

/// An input or output file binding on a port.  `dataflow` inputs are
/// produced by a parent task at runtime; non-dataflow inputs name a file in
/// the user's VDCE store (or a URL via the I/O service).
struct FileSpec {
  std::string path;         ///< e.g. "/users/VDCE/user_k/matrix_A.dat"; empty for dataflow
  double size_bytes = 0.0;  ///< known size; 0 = unknown until runtime
  bool dataflow = false;    ///< supplied by a parent task via an edge

  [[nodiscard]] std::string describe() const {
    return dataflow ? "dataflow" : path;
  }
};

/// The editor's task-properties panel for one task instance.
struct TaskProperties {
  ComputationMode mode = ComputationMode::kSequential;
  int num_nodes = 1;  ///< processors used by a parallel implementation
  std::string preferred_machine_type;  ///< empty = "<any>"
  std::string preferred_machine;       ///< specific host name; empty = "<any>"
  std::vector<FileSpec> inputs;        ///< one per input port
  std::vector<FileSpec> outputs;       ///< one per output port
  std::vector<std::string> services;   ///< requested runtime services
};

/// A node of the AFG: an instance of a library task.
struct TaskNode {
  TaskId id;
  std::string instance_name;  ///< unique within the application
  std::string task_name;      ///< library implementation, e.g. "matrix.lu"
  TaskProperties props;

  [[nodiscard]] int in_ports() const {
    return static_cast<int>(props.inputs.size());
  }
  [[nodiscard]] int out_ports() const {
    return static_cast<int>(props.outputs.size());
  }
};

/// A dataflow edge between logical ports.
struct Edge {
  TaskId from;
  int from_port = 0;
  TaskId to;
  int to_port = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// The application flow graph.  Mutating operations validate port ranges
/// and reject duplicate connections immediately; acyclicity is checked by
/// `validate()` (called by the scheduler before interpreting the graph).
/// Building a graph of V tasks and E edges costs O(V + E): instance names
/// are indexed, so the duplicate check and `find_task` are O(1).
class Afg {
 public:
  Afg() = default;
  explicit Afg(std::string application_name)
      : name_(std::move(application_name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Add a task instance.  Fails if `instance_name` is empty or already
  /// exists, or if the properties are invalid; a rejected call changes
  /// nothing.
  common::Expected<TaskId> add_task(const std::string& instance_name,
                                    const std::string& task_name,
                                    TaskProperties props);

  /// Connect from.out_port -> to.in_port.  Marks the target input as
  /// dataflow.  Fails on bad ids/ports, duplicate in-edges on a port, or
  /// self loops.
  common::Status connect(TaskId from, int from_port, TaskId to, int to_port);

  // --- queries ----------------------------------------------------------
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] const TaskNode& task(TaskId id) const;
  /// Mutable access for the editor's property panels.  The instance name
  /// is indexed: do not change it through this reference.
  [[nodiscard]] TaskNode& task(TaskId id);
  [[nodiscard]] const std::vector<TaskNode>& tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] common::Expected<TaskId> find_task(
      const std::string& instance_name) const;

  [[nodiscard]] std::vector<TaskId> parents(TaskId id) const;
  [[nodiscard]] std::vector<TaskId> children(TaskId id) const;

  /// Zero-allocation adjacency: indices into `edges()` of the edges
  /// entering / leaving `id`, in edge insertion order (callers that sum
  /// floating-point transfer costs rely on that order).  Unlike parents()
  /// and children(), a pair joined on two ports appears twice.
  [[nodiscard]] const std::vector<std::uint32_t>& in_edge_ids(TaskId id) const;
  [[nodiscard]] const std::vector<std::uint32_t>& out_edge_ids(TaskId id) const;
  [[nodiscard]] const Edge& edge(std::uint32_t edge_id) const {
    return edges_[edge_id];
  }
  [[nodiscard]] std::size_t in_degree(TaskId id) const {
    return in_edge_ids(id).size();
  }
  [[nodiscard]] std::size_t out_degree(TaskId id) const {
    return out_edge_ids(id).size();
  }

  /// Entry nodes: no parents.  Exit nodes: no children.
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;
  [[nodiscard]] std::vector<TaskId> exit_tasks() const;

  /// True if the task needs no input files at all (every input is either
  /// absent or dataflow-free) — the Fig. 2 "does not require input" case.
  [[nodiscard]] bool requires_input(TaskId id) const;

  /// Bytes flowing along an edge: the producing output port's declared
  /// size.
  [[nodiscard]] double edge_bytes(const Edge& e) const;

  /// Structural validation: acyclicity plus port-consistency.  Returns the
  /// first problem found.
  [[nodiscard]] common::Status validate() const;

  /// Topological order (stable: ties broken by insertion id).  Fails with
  /// kCycleDetected on a cyclic graph.
  [[nodiscard]] common::Expected<std::vector<TaskId>> topological_order() const;

 private:
  std::string name_;
  std::vector<TaskNode> tasks_;
  std::vector<Edge> edges_;
  // Adjacency index maintained by connect(): per-task edge ids into edges_,
  // kept in insertion order.  Edges are never removed, so the index never
  // goes stale.
  std::vector<std::vector<std::uint32_t>> in_index_;
  std::vector<std::vector<std::uint32_t>> out_index_;
  // Instance-name index: an open-addressed table of task ids (kFreeSlot when
  // empty), linear probing against tasks_[id].instance_name.  Its capacity
  // is a power of two and it is at most half full.  One vector, so a copy
  // of the graph costs one allocation for it, not one per task.
  static constexpr std::uint32_t kFreeSlot = ~std::uint32_t{0};
  std::vector<std::uint32_t> name_slots_;

  /// The slot holding `name`, or the free slot where it would go.
  /// Requires a non-empty table.
  [[nodiscard]] std::size_t name_slot(std::string_view name) const;
  /// The id of the task named `name`, or kFreeSlot.
  [[nodiscard]] std::uint32_t indexed_id(std::string_view name) const {
    return name_slots_.empty() ? kFreeSlot : name_slots_[name_slot(name)];
  }
};

}  // namespace vdce::afg
