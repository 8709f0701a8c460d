#include "afg/graph.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>

namespace vdce::afg {

std::size_t Afg::name_slot(std::string_view name) const {
  assert(!name_slots_.empty());
  const std::size_t mask = name_slots_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(name) & mask;
  while (name_slots_[slot] != kFreeSlot &&
         tasks_[name_slots_[slot]].instance_name != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

common::Expected<TaskId> Afg::add_task(const std::string& instance_name,
                                       const std::string& task_name,
                                       TaskProperties props) {
  if (instance_name.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "empty task instance name"};
  }
  if (indexed_id(instance_name) != kFreeSlot) {
    return common::Error{common::ErrorCode::kAlreadyExists,
                         "duplicate task instance: " + instance_name};
  }
  if (props.num_nodes < 1) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "num_nodes must be >= 1 for " + instance_name};
  }
  if (props.mode == ComputationMode::kSequential && props.num_nodes != 1) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "sequential task cannot request multiple nodes: " +
                             instance_name};
  }
  // Every check passed: only now is the name indexed.
  TaskId id(static_cast<TaskId::value_type>(tasks_.size()));
  tasks_.push_back(TaskNode{id, instance_name, task_name, std::move(props)});
  in_index_.emplace_back();
  out_index_.emplace_back();
  if (2 * tasks_.size() > name_slots_.size()) {
    // Rehash into twice the capacity (names are distinct, so each probe
    // stops at a free slot).  The first table has 64 slots, so a graph of
    // up to 32 tasks, a typical fleet application, is indexed without a
    // rehash.
    name_slots_.assign(std::max<std::size_t>(64, 2 * name_slots_.size()),
                       kFreeSlot);
    for (const TaskNode& t : tasks_) {
      name_slots_[name_slot(t.instance_name)] = t.id.value();
    }
  } else {
    name_slots_[name_slot(instance_name)] = id.value();
  }
  return id;
}

common::Status Afg::connect(TaskId from, int from_port, TaskId to,
                            int to_port) {
  if (from.value() >= tasks_.size() || to.value() >= tasks_.size()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "connect: unknown task id"};
  }
  if (from == to) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "connect: self loop on " + task(from).instance_name};
  }
  const TaskNode& src = task(from);
  TaskNode& dst = task(to);
  if (from_port < 0 || from_port >= src.out_ports()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "connect: bad output port " + std::to_string(from_port) +
                             " on " + src.instance_name};
  }
  if (to_port < 0 || to_port >= dst.in_ports()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "connect: bad input port " + std::to_string(to_port) +
                             " on " + dst.instance_name};
  }
  for (std::uint32_t idx : in_index_[to.value()]) {
    if (edges_[idx].to_port == to_port) {
      return common::Error{common::ErrorCode::kAlreadyExists,
                           "input port " + std::to_string(to_port) + " of " +
                               dst.instance_name + " already connected"};
    }
  }
  const auto edge_id = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(Edge{from, from_port, to, to_port});
  out_index_[from.value()].push_back(edge_id);
  in_index_[to.value()].push_back(edge_id);
  dst.props.inputs[static_cast<std::size_t>(to_port)].dataflow = true;
  dst.props.inputs[static_cast<std::size_t>(to_port)].path.clear();
  return common::Status::success();
}

const TaskNode& Afg::task(TaskId id) const {
  assert(id.value() < tasks_.size());
  return tasks_[id.value()];
}

TaskNode& Afg::task(TaskId id) {
  assert(id.value() < tasks_.size());
  return tasks_[id.value()];
}

common::Expected<TaskId> Afg::find_task(
    const std::string& instance_name) const {
  const std::uint32_t id = indexed_id(instance_name);
  if (id != kFreeSlot) return TaskId(id);
  return common::Error{common::ErrorCode::kNotFound,
                       "no task instance " + instance_name};
}

std::vector<TaskId> Afg::parents(TaskId id) const {
  std::vector<TaskId> out;
  out.reserve(in_index_[id.value()].size());
  for (std::uint32_t idx : in_index_[id.value()]) {
    TaskId from = edges_[idx].from;
    if (std::find(out.begin(), out.end(), from) == out.end()) {
      out.push_back(from);
    }
  }
  return out;
}

std::vector<TaskId> Afg::children(TaskId id) const {
  std::vector<TaskId> out;
  out.reserve(out_index_[id.value()].size());
  for (std::uint32_t idx : out_index_[id.value()]) {
    TaskId to = edges_[idx].to;
    if (std::find(out.begin(), out.end(), to) == out.end()) {
      out.push_back(to);
    }
  }
  return out;
}

const std::vector<std::uint32_t>& Afg::in_edge_ids(TaskId id) const {
  assert(id.value() < in_index_.size());
  return in_index_[id.value()];
}

const std::vector<std::uint32_t>& Afg::out_edge_ids(TaskId id) const {
  assert(id.value() < out_index_.size());
  return out_index_[id.value()];
}

std::vector<TaskId> Afg::entry_tasks() const {
  std::vector<TaskId> out;
  for (const TaskNode& t : tasks_) {
    if (in_index_[t.id.value()].empty()) out.push_back(t.id);
  }
  return out;
}

std::vector<TaskId> Afg::exit_tasks() const {
  std::vector<TaskId> out;
  for (const TaskNode& t : tasks_) {
    if (out_index_[t.id.value()].empty()) out.push_back(t.id);
  }
  return out;
}

bool Afg::requires_input(TaskId id) const {
  for (const FileSpec& f : task(id).props.inputs) {
    if (f.dataflow || !f.path.empty()) return true;
  }
  return false;
}

double Afg::edge_bytes(const Edge& e) const {
  const TaskNode& src = task(e.from);
  assert(e.from_port >= 0 && e.from_port < src.out_ports());
  return src.props.outputs[static_cast<std::size_t>(e.from_port)].size_bytes;
}

common::Status Afg::validate() const {
  if (tasks_.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "AFG has no tasks"};
  }
  // Port bounds are enforced at connect(); re-check here for graphs built
  // by deserialization.
  for (const Edge& e : edges_) {
    const TaskNode& src = task(e.from);
    const TaskNode& dst = task(e.to);
    if (e.from_port < 0 || e.from_port >= src.out_ports() || e.to_port < 0 ||
        e.to_port >= dst.in_ports()) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "edge with out-of-range port between " +
                               src.instance_name + " and " + dst.instance_name};
    }
  }
  auto order = topological_order();
  if (!order) return order.error();
  return common::Status::success();
}

common::Expected<std::vector<TaskId>> Afg::topological_order() const {
  std::vector<std::size_t> in_degree(tasks_.size(), 0);
  for (const Edge& e : edges_) ++in_degree[e.to.value()];

  // Min-heap on task id for a stable, deterministic order.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (const TaskNode& t : tasks_) {
    if (in_degree[t.id.value()] == 0) ready.push(t.id);
  }

  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    TaskId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (std::uint32_t idx : out_index_[id.value()]) {
      const Edge& e = edges_[idx];
      if (--in_degree[e.to.value()] == 0) ready.push(e.to);
    }
  }
  if (order.size() != tasks_.size()) {
    return common::Error{common::ErrorCode::kCycleDetected,
                         "application flow graph contains a cycle"};
  }
  return order;
}

}  // namespace vdce::afg
