#include "afg/levels.hpp"

#include <algorithm>

namespace vdce::afg {

std::vector<TaskId> Levels::by_priority() const {
  std::vector<TaskId> order(level.size());
  for (std::size_t i = 0; i < level.size(); ++i) {
    order[i] = TaskId(static_cast<TaskId::value_type>(i));
  }
  std::sort(order.begin(), order.end(), [this](TaskId a, TaskId b) {
    if (level[a.value()] != level[b.value()]) {
      return level[a.value()] > level[b.value()];
    }
    return a < b;
  });
  return order;
}

namespace {

common::Expected<Levels> compute_impl(
    const Afg& graph, const CostFn& cost,
    const std::function<double(const Edge&)>* edge_cost) {
  auto order = graph.topological_order();
  if (!order) return order.error();

  Levels levels;
  levels.level.assign(graph.task_count(), 0.0);

  // Walk the topological order backwards: children are finalized before
  // their parents, so one pass suffices.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    TaskId id = *it;
    const TaskNode& node = graph.task(id);
    double best_child = 0.0;
    for (std::uint32_t idx : graph.out_edge_ids(id)) {
      const Edge& e = graph.edge(idx);
      double via = levels.level[e.to.value()];
      if (edge_cost != nullptr) via += (*edge_cost)(e);
      best_child = std::max(best_child, via);
    }
    levels.level[id.value()] = cost(node) + best_child;
  }
  return levels;
}

}  // namespace

common::Expected<Levels> compute_levels(const Afg& graph, const CostFn& cost) {
  return compute_impl(graph, cost, nullptr);
}

common::Expected<Levels> compute_levels_with_comm(
    const Afg& graph, const CostFn& cost,
    const std::function<double(const Edge&)>& edge_cost) {
  return compute_impl(graph, cost, &edge_cost);
}

}  // namespace vdce::afg
