#include "sched/strategy.hpp"

#include <array>
#include <string>
#include <utility>

#include "sched/baselines.hpp"
#include "sched/dbc.hpp"
#include "sched/heft.hpp"
#include "sched/list_variants.hpp"
#include "sched/site_scheduler.hpp"

namespace vdce::sched {

namespace {

/// The VDCE assignment phase (Fig. 2 steps 6-7) over the gathered
/// host-selection outputs.  The three VDCE rows differ only in the fixed
/// settings resolve() applies.
common::Expected<ResourceAllocationTable> assign_vdce(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& policy) {
  return assign_with_outputs(graph, context, outputs, policy, policy.strategy);
}

constexpr std::array kStrategies{
    Strategy{"vdce-level",
             "VDCE site scheduler (Fig. 2), availability-aware objective: "
             "level-priority list scheduling, candidates re-ranked by earliest "
             "finish under current occupancy.  Honours priority/access/"
             "staleness tuning.  The default strategy.",
             assign_vdce},
    Strategy{"vdce-level-paper",
             "VDCE site scheduler with the literal Fig. 2 objective: per-site "
             "transfer term plus the static host-selection prediction, machine "
             "occupancy ignored.",
             assign_vdce},
    Strategy{"vdce-local",
             "VDCE site scheduler restricted to the local site (AccessDomain::"
             "kLocalSite): isolates the value of wide-area scheduling.",
             assign_vdce},
    Strategy{"heft",
             "Heterogeneous Earliest Finish Time (Topcuoglu et al.): upward-"
             "rank priority with insertion-based earliest-finish placement.",
             assign_heft},
    Strategy{"min-min",
             "Classic min-min batch heuristic: each step places the ready task "
             "whose best completion time is smallest.",
             assign_min_min},
    Strategy{"max-min",
             "Max-min batch heuristic: each step places the ready task whose "
             "best completion time is largest, front-loading long tasks.",
             assign_max_min},
    Strategy{"b-level",
             "Bottom-level list scheduling: upward-rank priority (as HEFT) with "
             "earliest-finish placement but no slot insertion — isolates the "
             "value of HEFT's insertion.",
             assign_b_level},
    Strategy{"t-level",
             "Top-level list scheduling: the ready task with the smallest top "
             "level (earliest possible start) goes first — the ASAP companion "
             "to b-level.",
             assign_t_level},
    Strategy{"work-stealing",
             "Idle-worker pull: the highest-ranked ready task is stolen by the "
             "feasible machine that can start it earliest, regardless of speed "
             "— models decentralized, availability-driven placement.",
             assign_work_stealing},
    Strategy{"min-load",
             "Greedy least-loaded machine (monitoring data, no per-task "
             "prediction): isolates the value of the prediction model.",
             assign_min_load},
    Strategy{"round-robin",
             "Cycle through the feasible machines regardless of speed or load.",
             assign_round_robin},
    Strategy{"random",
             "Uniformly random feasible machine per task, seeded by "
             "policy.seed.",
             assign_random},
    Strategy{"dbc-cost",
             "Deadline/budget-constrained cost-optimisation (Buyya et al., "
             "arXiv cs/0203020): minimise quoted spend subject to the policy "
             "deadline.  Without prices or constraints, identical to the "
             "default assignment phase (docs/ECONOMY.md).",
             assign_dbc_cost},
    Strategy{"dbc-time",
             "Deadline/budget-constrained time-optimisation (Buyya et al., "
             "arXiv cs/0203020): minimise completion time subject to the "
             "policy budget.  Without prices or constraints, identical to the "
             "default assignment phase (docs/ECONOMY.md).",
             assign_dbc_time},
};

}  // namespace

std::span<const Strategy> strategies() { return kStrategies; }

common::Expected<ResolvedPolicy> resolve(const SchedulingPolicy& policy) {
  ResolvedPolicy out{nullptr, policy};
  SchedulingPolicy& p = out.policy;
  if (p.strategy.empty()) {
    p.strategy = p.objective == SiteObjective::kPaperObjective
                     ? "vdce-level-paper"
                     : "vdce-level";
  }
  for (const Strategy& row : kStrategies) {
    if (row.name == p.strategy) {
      out.row = &row;
      break;
    }
  }
  if (out.row == nullptr) {
    std::string known;
    for (const Strategy& row : kStrategies) {
      if (!known.empty()) known += ", ";
      known += row.name;
    }
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "unknown scheduling strategy \"" + p.strategy +
                             "\" (known: " + known + ")"};
  }
  // The VDCE rows' fixed settings.
  if (p.strategy == "vdce-level-paper") {
    p.objective = SiteObjective::kPaperObjective;
  } else if (p.strategy == "vdce-level" || p.strategy == "vdce-local") {
    p.objective = SiteObjective::kAvailabilityAware;
  }
  if (p.strategy == "vdce-local") p.access = db::AccessDomain::kLocalSite;
  return out;
}

common::Expected<ResourceAllocationTable> plan(
    const afg::Afg& graph, const SchedulerContext& context,
    const SchedulingPolicy& policy) {
  auto resolved = resolve(policy);
  if (!resolved) return resolved.error();
  auto valid = graph.validate();
  if (!valid.ok()) return valid.error();

  // Fig. 2 steps 3-5: host selection at every candidate site.  (The
  // distributed runtime performs this over the fabric; this synchronous
  // entry point calls each site's algorithm directly.)
  const std::shared_ptr<const TaskKinds> kinds = TaskKinds::of(graph);
  const std::vector<common::SiteId> sites =
      candidate_site_set(context, resolved->policy);
  std::vector<HostSelectionOutput> outputs;
  outputs.reserve(sites.size());
  std::vector<const HostSelectionOutput*> gathered;
  gathered.reserve(sites.size());
  for (common::SiteId s : sites) {
    auto out = HostSelectionAlgorithm::run(graph, kinds, s, context.repo(s),
                                           *context.predictor);
    if (!out) return out.error();
    gathered.push_back(&outputs.emplace_back(std::move(*out)));
  }
  return resolved->row->assign(graph, context, gathered, resolved->policy);
}

}  // namespace vdce::sched
