#include "sched/site_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "afg/levels.hpp"

namespace vdce::sched {

namespace {

/// Candidate placement at one site with its evaluated objective and the
/// timing that placing it there would produce.  A one-host candidate keeps
/// its machine by value; only a parallel group owns a vector.
struct SiteCandidate {
  common::SiteId site;
  common::HostId host;                ///< the machine of a one-host candidate
  std::vector<common::HostId> group;  ///< a parallel group; empty otherwise
  common::SimDuration predicted = 0.0;
  double objective = 0.0;
  bool valid = false;
};

/// Fig. 2's Time_total for the literal paper objective: sum of inter-site
/// transfer times for the task's dataflow inputs plus the site's bid.
double paper_objective(const afg::Afg& graph, afg::TaskId task,
                       common::SiteId candidate_site,
                       const ScheduleBuilder& builder,
                       const net::Topology& topology, double predicted) {
  double transfer = 0.0;
  // in_edge_ids preserves edge insertion order, so this sum accumulates in
  // exactly the order the edge-list scan used — bit-identical totals.
  for (std::uint32_t idx : graph.in_edge_ids(task)) {
    const afg::Edge& e = graph.edge(idx);
    const Assignment& parent = builder.assignment(e.from);
    transfer += topology.site_transfer_time(parent.site, candidate_site,
                                            graph.edge_bytes(e));
  }
  return transfer + predicted;
}

}  // namespace

common::Expected<ResourceAllocationTable> assign_with_outputs(
    const afg::Afg& graph, const SchedulerContext& context,
    GatheredOutputs outputs,
    const SchedulingPolicy& options, const std::string& scheduler_name) {
  if (context.topology == nullptr || context.predictor == nullptr) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "scheduler context lacks a topology or predictor"};
  }
  if (outputs.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "no host-selection outputs supplied"};
  }
  if (outputs.front()->site != context.local_site) {
    return common::Error{
        common::ErrorCode::kInvalidArgument,
        "host-selection outputs must lead with the local site"};
  }

  const net::Topology& topology = *context.topology;
  const db::SiteRepository& local_repo = context.repo(context.local_site);
  // Every output shares the request's kinds; each kind's performance record
  // is resolved once, at the local repository.
  const TaskKinds& kinds = *outputs.front()->kinds;
  assert(kinds.of_task.size() == graph.task_count());
  std::vector<db::TaskPerfRecord> perf;  // by kind
  perf.reserve(kinds.count());
  for (afg::TaskId first : kinds.first) {
    auto record = resolve_perf(graph.task(first), local_repo.tasks());
    if (!record) return record.error();
    perf.push_back(std::move(*record));
  }
  auto perf_of = [&](afg::TaskId task) -> const db::TaskPerfRecord& {
    return perf[kinds.of_task[task.value()]];
  };

  // Graceful degradation under stale monitoring data: a prediction built on
  // an old sample is optimistic about the host's current load, so inflate
  // it — fresh information wins and muted monitors stop attracting work.
  std::size_t stale_hosts_seen = 0;
  auto staleness = [&](const db::ResourceRecord& record) {
    if (options.stale_after <= 0.0) return 1.0;
    if (context.now - record.last_sample_time() <= options.stale_after) {
      return 1.0;
    }
    ++stale_hosts_seen;
    return kStalePenalty;
  };

  // --- priorities: level of each node, computed before scheduling (§3) ---
  auto cost_fn = [&](const afg::TaskNode& node) {
    return perf_of(node.id).base_exec_time;
  };
  common::Expected<afg::Levels> levels =
      common::Error{common::ErrorCode::kInternal, "unset"};
  switch (options.priority) {
    case PriorityMode::kPaperLevels:
      levels = afg::compute_levels(graph, cost_fn);
      break;
    case PriorityMode::kCommLevels:
      levels = afg::compute_levels_with_comm(
          graph, cost_fn, [&](const afg::Edge& e) {
            return mean_edge_cost(graph, e, context);
          });
      break;
    case PriorityMode::kFifo: {
      // Degenerate levels: all zero, so the ready-set tiebreak (task id)
      // decides — plain FIFO over the ready list.
      afg::Levels fifo;
      fifo.level.assign(graph.task_count(), 0.0);
      levels = fifo;
      break;
    }
  }
  if (!levels) return levels.error();

  // --- Fig. 2 steps 6-7: ready-list scheduling by level priority ---------
  ScheduleBuilder builder(graph, topology);
  const common::HostId staging = topology.site(context.local_site).server;
  std::size_t candidates_evaluated = 0;

  // Which machines this placement may use (sched/host_filter.hpp): held
  // by another in-flight application, inside a foreign committed window, or
  // outside the application's own booking, a machine is invisible and the
  // remaining candidates are re-ranked by the unchanged objective.  With no
  // foreign holders and no windows every decision below is bit-identical to
  // the reservation-free scheduler.
  HostFilter filter(context, options);
  std::size_t contention_reranked = 0;
  // Group members of the candidate being evaluated, reused across tasks.
  std::vector<const db::ResourceRecord*> members;
  struct PoolEntry {
    const db::ResourceRecord* record;
    double predicted;
  };
  std::vector<PoolEntry> pool;

  // Place each task as the ready list yields it: highest level first, ties
  // by id.
  auto place = [&](afg::TaskId task) -> common::Status {
    const afg::TaskNode& node = graph.task(task);
    const db::TaskPerfRecord& task_perf = perf_of(task);

    const bool no_input_case =
        graph.in_degree(task) == 0 || !graph.requires_input(task);

    SiteCandidate best;
    for (const HostSelectionOutput* output : outputs) {
      const common::SiteId s = output->site;
      const TaskBid* bid = output->bid(task);
      if (bid == nullptr) continue;  // site did not bid

      SiteCandidate cand;
      cand.site = s;
      cand.valid = true;
      ++candidates_evaluated;

      // Ranked feasible machines of this site, ranked by run() once for
      // the task's kind (repository state cannot have changed since).
      const std::span<const RankedRef> ranked = output->ranked(task);
      auto rec_of = [&](std::size_t i) -> const db::ResourceRecord& {
        return output->host_pool[ranked[i].index];
      };
      const auto need = node.props.mode == afg::ComputationMode::kParallel
                            ? static_cast<std::size_t>(node.props.num_nodes)
                            : std::size_t{1};

      if (options.objective == SiteObjective::kPaperObjective) {
        const std::span<const common::HostId> bid_hosts = output->hosts(*bid);
        bool contended = false;
        for (common::HostId h : bid_hosts) {
          if (filter.held(h) || !filter.window_admits(h, -1.0)) {
            contended = true;
            break;
          }
        }
        if (!contended) {
          if (bid_hosts.size() == 1) {
            cand.host = bid_hosts.front();
          } else {
            cand.group.assign(bid_hosts.begin(), bid_hosts.end());
          }
          cand.predicted = bid->predicted;
        } else {
          // The site's bid machine is occupied by a concurrent application:
          // re-rank deterministically over the remaining feasible machines
          // (same (predicted, host-id) order Fig. 3 produced) and bid them
          // by the group rule; a single host keeps its own prediction.
          ++contention_reranked;
          members.clear();
          for (std::size_t i = 0; i < ranked.size() && members.size() < need;
               ++i) {
            if (!filter.admits(rec_of(i).host)) continue;
            members.push_back(&rec_of(i));
            cand.predicted = ranked[i].predicted;
          }
          if (members.size() < need) continue;  // site fully occupied
          if (need == 1) {
            cand.host = members.front()->host;
          } else {
            auto predicted = HostSelectionAlgorithm::group_bid(
                node, task_perf, s, members, context.repo(s),
                *context.predictor);
            if (!predicted) continue;
            cand.group.reserve(need);
            for (const db::ResourceRecord* r : members) {
              cand.group.push_back(r->host);
            }
            cand.predicted = *predicted;
          }
        }
        cand.objective =
            no_input_case
                ? cand.predicted
                : paper_objective(graph, task, s, builder, topology,
                                  cand.predicted);
      } else {
        // Availability-aware: re-rank this site's feasible machines by the
        // finish time they would actually yield given current occupancy.
        if (ranked.size() < need) continue;

        if (need == 1) {
          // Bounded scan: no host of this site finishes before floor +
          // predicted (data_ready_floor; `+` rounds monotonically), so a
          // host whose bound cannot beat the site's best so far (ties keep
          // the earlier host) or an earlier site's objective (ties go to
          // the lower site id: strict) is skipped unevaluated.  The skip
          // comes after the filter and staleness counters; under committed
          // windows there is none, as window_admits needs every finish.
          const bool bounded = !filter.has_windows();
          const double ready_floor =
              bounded ? builder.data_ready_floor(task, s, staging) : 0.0;
          bool have = false;
          double best_finish = 0.0;
          common::HostId best_host;
          double best_predicted = 0.0;
          for (std::size_t i = 0; i < ranked.size(); ++i) {
            const db::ResourceRecord& rec = rec_of(i);
            if (!filter.unheld(rec.host)) continue;
            const double predicted = ranked[i].predicted * staleness(rec);
            if (bounded) {
              const double bound = ready_floor + predicted;
              if ((have && bound >= best_finish) ||
                  (best.valid && bound > best.objective)) {
                continue;
              }
            }
            double finish =
                builder.earliest_start(task, rec.host, staging) + predicted;
            // Conservative backfill: the guarded finish estimate must land
            // before the machine's next committed window start.
            if (!filter.window_admits(rec.host, finish)) continue;
            if (!have || finish < best_finish) {
              have = true;
              best_finish = finish;
              best_host = rec.host;
              best_predicted = predicted;
            }
          }
          if (!have) continue;  // every feasible machine is occupied
          cand.host = best_host;
          cand.predicted = best_predicted;
          cand.objective = best_finish;
        } else {
          // Parallel group: earliest-free machines among the fastest 2N
          // unreserved to balance speed against occupancy.  The pool sorts
          // by (host free, predicted, host id): a total order, so ties keep
          // Fig. 3's ranking whatever the library's sort.
          pool.clear();
          for (std::size_t i = 0;
               i < ranked.size() && pool.size() < 2 * need; ++i) {
            // Parallel groups never backfill across a pending window: the
            // group's joint finish estimate is too coupled to prove the
            // no-delay invariant host by host.
            if (!filter.admits(rec_of(i).host)) continue;
            pool.push_back(PoolEntry{&rec_of(i), ranked[i].predicted});
          }
          if (pool.size() < need) continue;
          std::sort(pool.begin(), pool.end(),
                    [&](const PoolEntry& a, const PoolEntry& b) {
                      auto fa = builder.host_free(a.record->host);
                      auto fb = builder.host_free(b.record->host);
                      if (fa != fb) return fa < fb;
                      if (a.predicted != b.predicted) {
                        return a.predicted < b.predicted;
                      }
                      return a.record->host < b.record->host;
                    });
          members.clear();
          cand.group.reserve(need);
          for (std::size_t i = 0; i < need; ++i) {
            members.push_back(pool[i].record);
            cand.group.push_back(pool[i].record->host);
          }
          auto predicted = context.predictor->predict(task_perf, members,
                                                      &context.repo(s).tasks());
          if (!predicted) continue;
          double penalty = 1.0;
          for (const db::ResourceRecord* r : members) {
            penalty = std::max(penalty, staleness(*r));
          }
          cand.predicted = *predicted * penalty;
          cand.objective =
              builder.earliest_start(task, cand.group, staging) + cand.predicted;
        }
      }

      if (!best.valid || cand.objective < best.objective ||
          (cand.objective == best.objective && cand.site < best.site)) {
        best = std::move(cand);
      }
    }

    if (!best.valid) {
      return common::Error{
          common::ErrorCode::kNoFeasibleResource,
          "no site can run task " + node.instance_name + filter.why_none()};
    }

    // Only the winning placement builds a host vector.
    builder.place(task, best.site,
                  best.group.empty() ? std::vector<common::HostId>{best.host}
                                     : std::move(best.group),
                  best.predicted, staging);
    return {};
  };
  if (auto st = run_ready_list(graph, levels->level, place); !st.ok()) {
    return st.error();
  }
  auto built = builder.build(graph.name(), scheduler_name);
  if (!built) return built.error();
  const ResourceAllocationTable& table = *built;
  const std::size_t placed = graph.task_count();

  if (context.obs != nullptr) {
    if (context.obs->metrics_on()) {
      obs::MetricsRegistry& m = context.obs->metrics();
      m.counter("sched.assign.runs").add();
      m.counter("sched.assign.tasks_placed").add(placed);
      m.histogram("sched.assign.site_candidates_per_task")
          .add(static_cast<double>(candidates_evaluated) /
               static_cast<double>(placed));
      m.histogram("sched.schedule_length").add(table.schedule_length);
      if (stale_hosts_seen > 0) {
        m.counter("sched.stale_hosts_penalized").add(stale_hosts_seen);
      }
      if (filter.held_rejections() > 0) {
        m.counter("sched.contention.hosts_skipped")
            .add(filter.held_rejections());
      }
      if (contention_reranked > 0) {
        m.counter("sched.contention.bids_reranked").add(contention_reranked);
      }
      if (filter.window_rejections() > 0) {
        m.counter("sched.windows.hosts_skipped")
            .add(filter.window_rejections());
      }
    }
    if (context.obs->health_on() && filter.held_rejections() > 0) {
      obs::health::SeriesKey key;
      key.metric = obs::health::kContentionSkips;
      context.obs->health().observe_delta(
          key, context.now, static_cast<double>(filter.held_rejections()));
    }
    if (context.obs->trace_on()) {
      context.obs->trace().instant(
          "sched", "sched.assign", context.now, obs::kControlTrack,
          {obs::arg("scheduler", scheduler_name),
           obs::arg("tasks", std::uint64_t{placed}),
           obs::arg("sites", std::uint64_t{outputs.size()}),
           obs::arg("schedule_length", table.schedule_length)});
    }
  }
  return built;
}

}  // namespace vdce::sched
