// Host Selection Algorithm — Figure 3 of the paper.
//
//   1. Retrieve task-specific parameters of AFG tasks from the
//      task-performance database.
//   2. Retrieve resource-specific parameters of the resource set
//      R_set = {R1..Rm} from the resource-performance database.
//   3. task_queue = all tasks of the AFG.
//   4. For each task in task_queue: evaluate Predict(task, R) for all R in
//      R_set and assign the task to the R minimizing it.
//
// Each site runs this against its own repository when the AFG is multicast
// to it (Fig. 2, steps 3-5), then returns the per-task best machine and
// predicted time to the requesting site.  "For parallel tasks, the host
// selection algorithm is updated to select the number of machines required
// within the site" (§3) — handled here by picking the `num_nodes` fastest
// feasible machines and predicting the group time.
//
// Feasibility of a machine for a task combines: the host is up in the
// resource DB; the task-constraints database lists an executable for it on
// that host (a task with *no* constraint entries anywhere is treated as a
// library task installed everywhere); the user's preferred machine /
// machine-type properties match; and the prediction model deems memory
// sufficient.
#pragma once

#include <unordered_map>
#include <vector>

#include "afg/graph.hpp"
#include "common/expected.hpp"
#include "db/site_repository.hpp"
#include "predict/model.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

/// One site's answer for one task: the chosen machine(s) and the predicted
/// execution time (the "mapping information ... machine name and predicted
/// execution time" each remote site sends back, §3).
struct HostBid {
  common::SiteId site;
  std::vector<common::HostId> hosts;
  common::SimDuration predicted = 0.0;
};

/// Reference into a site's host-pool snapshot: pool index of a feasible
/// machine plus its sequential prediction.  Sixteen bytes instead of a full
/// ResourceRecord copy, so ranked lists can be cached per (task, site).
struct RankedRef {
  std::uint32_t index = 0;
  common::SimDuration predicted = 0.0;
};

/// The full output of one site's host-selection run.  Tasks with no
/// feasible machine at this site are simply absent from `bids`.
///
/// run() additionally snapshots the site's available hosts and retains every
/// task's ranked feasible list (as indices into the snapshot).  Every
/// strategy row assigns from these (assign_with_outputs directly, the
/// offline rows through PlannerView) instead of recomputing feasible_hosts
/// per (task, site).  Fabric bid replies (sm.bids) carry the whole output,
/// ranking included, so a row sees what the site saw when it bid.
struct HostSelectionOutput {
  common::SiteId site;
  std::unordered_map<afg::TaskId, HostBid> bids;
  /// Available hosts of the site at run() time, sorted by host id.
  std::vector<db::ResourceRecord> host_pool;
  /// Per task id: feasible machines as indices into `host_pool`, sorted by
  /// (predicted, host); run() fills one entry per task.
  std::vector<std::vector<RankedRef>> ranked;
};

/// A feasible machine for a task with its predicted time, ranked ascending
/// by prediction.  Exposed so the site scheduler can consult alternatives
/// when the best machine is already occupied.
struct RankedHost {
  db::ResourceRecord record;
  common::SimDuration predicted = 0.0;
};

class HostSelectionAlgorithm {
 public:
  /// Fig. 3 over every task of the graph at one site.
  static common::Expected<HostSelectionOutput> run(
      const afg::Afg& graph, common::SiteId site,
      const db::SiteRepository& repo, const predict::Predictor& predictor);

  /// Feasible machines of `site` for one task, sorted by predicted time
  /// (sequential prediction per machine).  Empty when none qualify.
  static std::vector<RankedHost> feasible_hosts(
      const afg::TaskNode& node, const db::TaskPerfRecord& perf,
      common::SiteId site, const db::SiteRepository& repo,
      const predict::Predictor& predictor);

  /// The rule for a parallel task at one site (§3): the `num_nodes`
  /// individually fastest machines of `ranked` (the site's feasible
  /// machines in rank order) form the group, and the group prediction is
  /// gated by its slowest member.  Fails with kNoFeasibleResource when fewer
  /// than `num_nodes` machines are feasible.
  static common::Expected<HostBid> group_bid(
      const afg::TaskNode& node, const db::TaskPerfRecord& perf,
      common::SiteId site, const std::vector<const db::ResourceRecord*>& ranked,
      const db::SiteRepository& repo, const predict::Predictor& predictor);

  /// Core of feasible_hosts over a pre-fetched host pool: filter, predict,
  /// and rank by (predicted, host id) without copying any record.  `pool`
  /// must be the site's available hosts sorted by id (the order
  /// available_hosts returns).
  static std::vector<RankedRef> rank_hosts(
      const afg::TaskNode& node, const db::TaskPerfRecord& perf,
      const std::vector<db::ResourceRecord>& pool,
      const db::SiteRepository& repo, const predict::Predictor& predictor);
};

}  // namespace vdce::sched
