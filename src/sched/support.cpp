#include "sched/support.hpp"

#include "tasklib/registry.hpp"

namespace vdce::sched {

common::Expected<db::TaskPerfRecord> resolve_perf(
    const afg::TaskNode& node, const db::TaskPerformanceDb& database) {
  if (const db::TaskPerfRecord* rec = database.lookup(node.task_name)) {
    return *rec;
  }
  auto mflop = tasklib::parse_synthetic_mflop(node.task_name);
  if (mflop) {
    db::TaskPerfRecord synthetic;
    synthetic.task_name = node.task_name;
    synthetic.computation_mflop = *mflop;
    synthetic.communication_bytes = 1e5;
    synthetic.required_memory_mb = 8.0;
    synthetic.base_exec_time = *mflop / tasklib::TaskRegistry::kBaseProcessorMflops;
    synthetic.parallel_fraction = 0.9;
    return synthetic;
  }
  return common::Error{common::ErrorCode::kNotFound,
                       "no performance record for task '" + node.task_name +
                           "' (instance " + node.instance_name + ")"};
}

common::Expected<common::SimDuration> base_cost(
    const afg::TaskNode& node, const db::TaskPerformanceDb& database) {
  auto rec = resolve_perf(node, database);
  if (!rec) return rec.error();
  return rec->base_exec_time;
}

}  // namespace vdce::sched
