#include "sched/host_selection.hpp"

#include <algorithm>

namespace vdce::sched {

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

common::Expected<HostBid> HostSelectionAlgorithm::group_bid(
    const afg::TaskNode& node, const db::TaskPerfRecord& perf,
    common::SiteId site, const std::vector<const db::ResourceRecord*>& ranked,
    const db::SiteRepository& repo, const predict::Predictor& predictor) {
  const auto need = static_cast<std::size_t>(node.props.num_nodes);
  if (ranked.size() < need) {
    return common::Error{common::ErrorCode::kNoFeasibleResource,
                         "site " + std::to_string(site.value()) + " has " +
                             std::to_string(ranked.size()) +
                             " feasible hosts for " + node.instance_name +
                             ", needs " + std::to_string(need)};
  }
  HostBid bid;
  bid.site = site;
  std::vector<db::ResourceRecord> group;
  for (std::size_t i = 0; i < need; ++i) {
    group.push_back(*ranked[i]);
    bid.hosts.push_back(ranked[i]->host);
  }
  auto predicted = predictor.predict(perf, group, &repo.tasks());
  if (!predicted) return predicted.error();
  bid.predicted = *predicted;
  return bid;
}

common::Expected<HostSelectionOutput> HostSelectionAlgorithm::run(
    const afg::Afg& graph, common::SiteId site, const db::SiteRepository& repo,
    const predict::Predictor& predictor) {
  HostSelectionOutput output;
  output.site = site;
  // One snapshot of the site's hosts for the whole run; every task's ranked
  // list is kept as indices into it so assign_with_outputs never recomputes
  // feasible_hosts.
  output.host_pool = repo.resources().available_hosts(site);
  output.ranked.resize(graph.task_count());
  for (const afg::TaskNode& node : graph.tasks()) {
    auto perf = resolve_perf(node, repo.tasks());
    if (!perf) return perf.error();  // unknown task is a caller error
    std::vector<RankedRef> refs =
        rank_hosts(node, *perf, output.host_pool, repo, predictor);
    // A site with too few feasible machines simply does not bid.
    if (node.props.mode == afg::ComputationMode::kParallel &&
        node.props.num_nodes != 1) {
      std::vector<const db::ResourceRecord*> ranked;
      ranked.reserve(refs.size());
      for (const RankedRef& r : refs) {
        ranked.push_back(&output.host_pool[r.index]);
      }
      auto bid = group_bid(node, *perf, site, ranked, repo, predictor);
      if (bid) output.bids.emplace(node.id, std::move(*bid));
    } else if (!refs.empty()) {
      output.bids.emplace(
          node.id, HostBid{site, {output.host_pool[refs.front().index].host},
                           refs.front().predicted});
    }
    output.ranked[node.id.value()] = std::move(refs);
  }
  return output;
}

}  // namespace vdce::sched
