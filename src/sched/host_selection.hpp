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
// predicted time to the requesting site.  Step 4 reads only a task's kind
// (TaskKinds below), so the ranking is computed once per (kind, site) and
// shared by every task of the kind.  "For parallel tasks, the host
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

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "afg/graph.hpp"
#include "common/expected.hpp"
#include "db/site_repository.hpp"
#include "predict/model.hpp"
#include "sched/support.hpp"

namespace vdce::sched {

/// One site's answer for one task, as a placement uses it: the chosen
/// machine(s) and the predicted execution time (the "mapping information
/// ... machine name and predicted execution time" each remote site sends
/// back, §3).
struct HostBid {
  common::SiteId site;
  std::vector<common::HostId> hosts;
  common::SimDuration predicted = 0.0;
};

/// A bid as HostSelectionOutput stores it: the predicted time and where the
/// chosen machines sit in the output's flat host array
/// (HostSelectionOutput::hosts), so a one-host bid owns no vector.
struct TaskBid {
  common::SimDuration predicted = 0.0;
  std::uint32_t first_host = 0;
  std::uint32_t host_count = 0;  ///< 0: the site did not bid for the task
};

/// Reference into a site's host-pool snapshot: pool index of a feasible
/// machine plus its sequential prediction.  Sixteen bytes instead of a full
/// ResourceRecord copy, so a site keeps one ranked list per task kind.
struct RankedRef {
  std::uint32_t index = 0;
  common::SimDuration predicted = 0.0;
};

/// The graph's tasks grouped by kind: the task name plus the node's
/// preferred machine and preferred machine type, everything Fig. 3 reads
/// from a node to rank machines.  Tasks of one kind get the same ranking at
/// a site; a parallel task's group bid also reads num_nodes, so bids stay
/// per task.  Derived once per scheduling request and shared by every
/// site's output, not stored in the graph: the editor may still rename a
/// node or change its properties.
struct TaskKinds {
  std::vector<std::uint32_t> of_task;  ///< kind by task id
  std::vector<afg::TaskId> first;      ///< lowest task id of each kind

  /// Kinds numbered in order of their lowest task id.
  static std::shared_ptr<const TaskKinds> of(const afg::Afg& graph);

  [[nodiscard]] std::size_t count() const noexcept { return first.size(); }
};

/// The full output of one site's host-selection run.
///
/// run() snapshots the site's available hosts and keeps one ranked feasible
/// list per task kind (as indices into the snapshot), all in one flat
/// array.  Every strategy row assigns from these (assign_with_outputs
/// directly, the offline rows through PlannerView) instead of recomputing
/// feasible_hosts per (task, site).  Fabric bid replies (sm.bids) carry the
/// whole output, rankings included, so a row sees what the site saw when
/// it bid.
struct HostSelectionOutput {
  common::SiteId site;
  /// Available hosts of the site at run() time, sorted by host id.
  std::vector<db::ResourceRecord> host_pool;
  /// The request's task kinds, shared with the other sites' outputs.
  std::shared_ptr<const TaskKinds> kinds;
  /// Each kind's feasible machines as indices into `host_pool`, sorted by
  /// (predicted, host), kind after kind: kind k's list is
  /// [ranking_start[k], ranking_start[k + 1]).
  std::vector<RankedRef> rankings;
  std::vector<std::uint32_t> ranking_start;
  /// This site's bid by task id; a bid's machines are
  /// bid_hosts[first_host, first_host + host_count).
  std::vector<TaskBid> bids;
  std::vector<common::HostId> bid_hosts;

  /// The task's feasible machines at this site, best first (its kind's
  /// ranking).
  [[nodiscard]] std::span<const RankedRef> ranked(afg::TaskId task) const {
    const std::uint32_t k = kinds->of_task[task.value()];
    return {rankings.begin() + ranking_start[k],
            rankings.begin() + ranking_start[k + 1]};
  }
  /// The site's bid for the task; null when it did not bid.
  [[nodiscard]] const TaskBid* bid(afg::TaskId task) const {
    const TaskBid& b = bids[task.value()];
    return b.host_count == 0 ? nullptr : &b;
  }
  [[nodiscard]] std::span<const common::HostId> hosts(const TaskBid& b) const {
    return {bid_hosts.begin() + b.first_host, b.host_count};
  }
  /// How many tasks the site bid for.
  [[nodiscard]] std::size_t bid_count() const;
  /// Record a bid.  Pre: `bids` has one entry per task.
  void set_bid(afg::TaskId task, common::SimDuration predicted,
               std::span<const common::HostId> machines);
};

/// The outputs a strategy row assigns from: one per candidate site that
/// bid, local site first.  The caller keeps them alive; nothing copies them.
using GatheredOutputs = std::span<const HostSelectionOutput* const>;

/// A feasible machine for a task with its predicted time, ranked ascending
/// by prediction.  Exposed so the site scheduler can consult alternatives
/// when the best machine is already occupied.
struct RankedHost {
  db::ResourceRecord record;
  common::SimDuration predicted = 0.0;
};

class HostSelectionAlgorithm {
 public:
  /// Fig. 3 over every task of the graph at one site: one ranking per kind
  /// of `kinds` (TaskKinds::of(graph)), one bid per task.
  static common::Expected<HostSelectionOutput> run(
      const afg::Afg& graph, std::shared_ptr<const TaskKinds> kinds,
      common::SiteId site, const db::SiteRepository& repo,
      const predict::Predictor& predictor);

  /// Feasible machines of `site` for one task, sorted by predicted time
  /// (sequential prediction per machine).  Empty when none qualify.
  static std::vector<RankedHost> feasible_hosts(
      const afg::TaskNode& node, const db::TaskPerfRecord& perf,
      common::SiteId site, const db::SiteRepository& repo,
      const predict::Predictor& predictor);

  /// The rule for a parallel task at one site (§3): the `num_nodes`
  /// individually fastest machines of `ranked` (the site's feasible
  /// machines in rank order) form the group, ranked[0, num_nodes), and the
  /// group prediction returned is gated by its slowest member.  Fails with
  /// kNoFeasibleResource when fewer than `num_nodes` machines are feasible.
  static common::Expected<common::SimDuration> group_bid(
      const afg::TaskNode& node, const db::TaskPerfRecord& perf,
      common::SiteId site, std::span<const db::ResourceRecord* const> ranked,
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
