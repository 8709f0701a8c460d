#include "econ/econ.hpp"

#include <vector>

namespace vdce::econ {

double CostModel::host_price(const net::Topology& topology,
                             common::HostId host) const {
  return cpu_price(topology.host(host).spec.speed_mflops);
}

double CostModel::edge_cost(const net::Topology& topology, common::HostId from,
                            common::HostId to, double bytes) const {
  const bool same_host = from == to;
  const bool same_site =
      topology.host(from).site == topology.host(to).site;
  return transfer_cost(bytes, same_host, same_site);
}

SpendBreakdown estimate_spend(const afg::Afg& graph,
                              const sched::ResourceAllocationTable& table,
                              const net::Topology& topology,
                              const CostModel& model) {
  SpendBreakdown spend;
  // Task ids are dense [0, task_count); index the table once instead of
  // calling the linear find() per edge endpoint.
  std::vector<const sched::Assignment*> by_task(graph.task_count(), nullptr);
  for (const sched::Assignment& a : table.assignments) {
    if (a.task.value() < by_task.size()) by_task[a.task.value()] = &a;
  }
  for (const sched::Assignment& a : table.assignments) {
    for (common::HostId h : a.hosts) {
      spend.compute += model.host_price(topology, h) * a.predicted_time;
    }
  }
  for (const afg::Edge& e : graph.edges()) {
    const sched::Assignment* from = e.from.value() < by_task.size()
                                        ? by_task[e.from.value()]
                                        : nullptr;
    const sched::Assignment* to =
        e.to.value() < by_task.size() ? by_task[e.to.value()] : nullptr;
    if (from == nullptr || to == nullptr) continue;  // partial table
    spend.transfer += model.edge_cost(topology, from->primary_host(),
                                      to->primary_host(),
                                      graph.edge_bytes(e));
  }
  return spend;
}

}  // namespace vdce::econ
