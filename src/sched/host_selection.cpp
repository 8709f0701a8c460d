#include "sched/host_selection.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <unordered_map>

namespace vdce::sched {

namespace {

/// What makes two tasks one kind: the node fields Fig. 3 reads.
struct KindKey {
  std::string_view task_name;
  std::string_view machine;
  std::string_view machine_type;

  bool operator==(const KindKey&) const = default;
};

struct KindKeyHash {
  std::size_t operator()(const KindKey& k) const noexcept {
    const std::hash<std::string_view> h;
    return h(k.task_name) ^ (h(k.machine) << 1) ^ (h(k.machine_type) << 2);
  }
};

}  // namespace

std::shared_ptr<const TaskKinds> TaskKinds::of(const afg::Afg& graph) {
  auto kinds = std::make_shared<TaskKinds>();
  kinds->of_task.reserve(graph.task_count());
  std::unordered_map<KindKey, std::uint32_t, KindKeyHash> index;
  for (const afg::TaskNode& node : graph.tasks()) {
    const KindKey key{node.task_name, node.props.preferred_machine,
                      node.props.preferred_machine_type};
    auto [it, added] =
        index.try_emplace(key, static_cast<std::uint32_t>(kinds->count()));
    if (added) kinds->first.push_back(node.id);
    kinds->of_task.push_back(it->second);
  }
  return kinds;
}

std::size_t HostSelectionOutput::bid_count() const {
  return static_cast<std::size_t>(
      std::count_if(bids.begin(), bids.end(),
                    [](const TaskBid& b) { return b.host_count != 0; }));
}

void HostSelectionOutput::set_bid(afg::TaskId task,
                                  common::SimDuration predicted,
                                  std::span<const common::HostId> machines) {
  TaskBid& b = bids[task.value()];
  b.predicted = predicted;
  b.first_host = static_cast<std::uint32_t>(bid_hosts.size());
  b.host_count = static_cast<std::uint32_t>(machines.size());
  bid_hosts.insert(bid_hosts.end(), machines.begin(), machines.end());
}

std::vector<RankedRef> HostSelectionAlgorithm::rank_hosts(
    const afg::TaskNode& node, const db::TaskPerfRecord& perf,
    const std::vector<db::ResourceRecord>& pool, const db::SiteRepository& repo,
    const predict::Predictor& predictor) {
  std::vector<RankedRef> out;
  out.reserve(pool.size());

  // A task with no constraint entries anywhere is a library task assumed
  // installed on every host; otherwise only listed hosts qualify.
  const bool constrained = repo.constraints().constrains(node.task_name);
  // The task's measured times, looked up once for the whole pool.
  const db::MeasuredRow* measured = repo.tasks().measured_row(perf.task_name);

  for (std::uint32_t i = 0; i < pool.size(); ++i) {
    const db::ResourceRecord& rec = pool[i];
    if (!node.props.preferred_machine.empty() &&
        rec.host_name != node.props.preferred_machine) {
      continue;
    }
    if (!node.props.preferred_machine_type.empty() &&
        rec.machine_type != node.props.preferred_machine_type) {
      continue;
    }
    if (constrained && !repo.constraints().runnable_on(node.task_name, rec.host)) {
      continue;
    }
    auto predicted = predictor.predict(perf, rec, measured);
    if (!predicted) continue;  // infeasible (memory) on this machine
    out.push_back(RankedRef{i, *predicted});
  }
  std::sort(out.begin(), out.end(),
            [&pool](const RankedRef& a, const RankedRef& b) {
              if (a.predicted != b.predicted) return a.predicted < b.predicted;
              return pool[a.index].host < pool[b.index].host;
            });
  return out;
}

std::vector<RankedHost> HostSelectionAlgorithm::feasible_hosts(
    const afg::TaskNode& node, const db::TaskPerfRecord& perf,
    common::SiteId site, const db::SiteRepository& repo,
    const predict::Predictor& predictor) {
  const std::vector<db::ResourceRecord> pool =
      repo.resources().available_hosts(site);
  const std::vector<RankedRef> refs =
      rank_hosts(node, perf, pool, repo, predictor);
  std::vector<RankedHost> out;
  out.reserve(refs.size());
  for (const RankedRef& r : refs) {
    out.push_back(RankedHost{pool[r.index], r.predicted});
  }
  return out;
}

common::Expected<common::SimDuration> HostSelectionAlgorithm::group_bid(
    const afg::TaskNode& node, const db::TaskPerfRecord& perf,
    common::SiteId site, std::span<const db::ResourceRecord* const> ranked,
    const db::SiteRepository& repo, const predict::Predictor& predictor) {
  const auto need = static_cast<std::size_t>(node.props.num_nodes);
  if (ranked.size() < need) {
    return common::Error{common::ErrorCode::kNoFeasibleResource,
                         "site " + std::to_string(site.value()) + " has " +
                             std::to_string(ranked.size()) +
                             " feasible hosts for " + node.instance_name +
                             ", needs " + std::to_string(need)};
  }
  return predictor.predict(perf, ranked.first(need), &repo.tasks());
}

common::Expected<HostSelectionOutput> HostSelectionAlgorithm::run(
    const afg::Afg& graph, std::shared_ptr<const TaskKinds> kinds,
    common::SiteId site, const db::SiteRepository& repo,
    const predict::Predictor& predictor) {
  assert(kinds->of_task.size() == graph.task_count());
  HostSelectionOutput output;
  output.site = site;
  // One snapshot of the site's hosts for the whole run; every kind's ranked
  // list is kept as indices into it so assign_with_outputs never recomputes
  // feasible_hosts.
  output.host_pool = repo.resources().available_hosts(site);
  std::vector<db::TaskPerfRecord> perf;  // by kind
  perf.reserve(kinds->count());
  output.ranking_start.reserve(kinds->count() + 1);
  output.ranking_start.push_back(0);
  for (afg::TaskId first : kinds->first) {
    const afg::TaskNode& node = graph.task(first);
    auto record = resolve_perf(node, repo.tasks());
    if (!record) return record.error();  // unknown task is a caller error
    const std::vector<RankedRef> refs =
        rank_hosts(node, *record, output.host_pool, repo, predictor);
    output.rankings.insert(output.rankings.end(), refs.begin(), refs.end());
    output.ranking_start.push_back(
        static_cast<std::uint32_t>(output.rankings.size()));
    perf.push_back(std::move(*record));
  }
  output.kinds = std::move(kinds);

  // One bid per task: a sequential task bids its kind's best machine, a
  // parallel one the group rule over its kind's ranking.  A site with too
  // few feasible machines simply does not bid.
  std::size_t host_slots = 0;
  for (const afg::TaskNode& node : graph.tasks()) {
    host_slots += node.props.mode == afg::ComputationMode::kParallel &&
                          node.props.num_nodes > 1
                      ? static_cast<std::size_t>(node.props.num_nodes)
                      : 1;
  }
  output.bids.resize(graph.task_count());
  output.bid_hosts.reserve(host_slots);
  std::vector<const db::ResourceRecord*> members;  // one group, reused
  std::vector<common::HostId> group;
  for (const afg::TaskNode& node : graph.tasks()) {
    const std::span<const RankedRef> refs = output.ranked(node.id);
    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes != 1) {
      const auto need = static_cast<std::size_t>(node.props.num_nodes);
      if (refs.size() < need) continue;
      members.clear();
      group.clear();
      for (const RankedRef& r : refs.first(need)) {
        members.push_back(&output.host_pool[r.index]);
        group.push_back(members.back()->host);
      }
      auto predicted =
          group_bid(node, perf[output.kinds->of_task[node.id.value()]], site,
                    members, repo, predictor);
      if (predicted) output.set_bid(node.id, *predicted, group);
    } else if (!refs.empty()) {
      const common::HostId best = output.host_pool[refs.front().index].host;
      output.set_bid(node.id, refs.front().predicted, {&best, 1});
    }
  }
  return output;
}

}  // namespace vdce::sched
