#include "obs/causal.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.hpp"

namespace vdce::obs::causal {

namespace {

/// Boundary slop when carving gaps: two simulated times closer than this are
/// the same boundary.  Keeps degenerate zero-width hops out of the path.
constexpr double kEps = 1e-12;

}  // namespace

const TaskExec* AppTrace::find_task(std::uint32_t task) const noexcept {
  for (const TaskExec& t : tasks) {
    if (t.task == task) return &t;
  }
  return nullptr;
}

const char* to_string(HopKind kind) {
  switch (kind) {
    case HopKind::kStartup: return "startup";
    case HopKind::kCompute: return "compute";
    case HopKind::kTransfer: return "transfer";
    case HopKind::kWait: return "wait";
    case HopKind::kRecovery: return "recovery";
    case HopKind::kCompletion: return "completion";
  }
  return "unknown";
}

namespace {

/// Pick the chain tail: the last-finishing task (ties -> lowest id, so the
/// walk is deterministic for identical traces).
const TaskExec* last_finisher(const AppTrace& app) {
  const TaskExec* best = nullptr;
  for (const TaskExec& t : app.tasks) {
    if (best == nullptr || t.finished > best->finished ||
        (t.finished == best->finished && t.task < best->task)) {
      best = &t;
    }
  }
  return best;
}

/// Carve [gap_start, gap_end] (a dependency wait leading into `into`) into
/// transfer / recovery / base segments and append them as hops.
///
/// Rules: portions covered by a transfer whose consumer is `into` become
/// kTransfer; of the remainder, anything after the first recovery mark for
/// `into` inside the gap becomes kRecovery; the rest keeps `base`
/// (kStartup for the first hop, kWait later).
void carve_gap(const AppTrace& app, common::SimTime gap_start,
               common::SimTime gap_end, std::uint32_t into,
               const std::string& into_label, HopKind base,
               std::vector<CriticalHop>& hops) {
  if (gap_end - gap_start <= kEps) return;

  // Merge the inbound transfers that overlap the gap into disjoint
  // intervals, clamped to the gap.
  std::vector<std::pair<double, double>> cover;
  for (const Transfer& tr : app.transfers) {
    if (tr.dst_task != into) continue;
    const double s = std::max(gap_start, tr.started);
    const double e = std::min(gap_end, tr.finished);
    if (e - s > kEps) cover.emplace_back(s, e);
  }
  std::sort(cover.begin(), cover.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& iv : cover) {
    if (!merged.empty() && iv.first <= merged.back().second + kEps) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }

  // First recovery mark for `into` inside the gap, if any: uncovered time
  // after it is recovery overhead, not plain waiting.
  double recovery_from = gap_end + 1.0;
  for (const RecoveryMark& r : app.recoveries) {
    if (r.task != into) continue;
    if (r.at >= gap_start - kEps && r.at <= gap_end + kEps) {
      recovery_from = std::min(recovery_from, std::max(r.at, gap_start));
    }
  }

  auto push_plain = [&](double s, double e) {
    // Split an uncovered segment at the recovery boundary.
    if (e - s <= kEps) return;
    if (recovery_from <= s + kEps) {
      hops.push_back({HopKind::kRecovery, into, into_label, s, e});
    } else if (recovery_from < e - kEps) {
      hops.push_back({base, into, into_label, s, recovery_from});
      hops.push_back({HopKind::kRecovery, into, into_label, recovery_from, e});
    } else {
      hops.push_back({base, into, into_label, s, e});
    }
  };

  double cursor = gap_start;
  for (const auto& iv : merged) {
    push_plain(cursor, iv.first);
    hops.push_back({HopKind::kTransfer, into, into_label,
                    std::max(cursor, iv.first), iv.second});
    cursor = iv.second;
  }
  push_plain(cursor, gap_end);
}

}  // namespace

CriticalPath critical_path(const AppTrace& app) {
  CriticalPath path;
  path.makespan = app.makespan();
  // Pre-execution admission and reservation waits; reported alongside the
  // phases but outside total(), which tiles [exec_started, completed] only.
  path.phases.contention = std::max(0.0, app.contention());
  path.phases.reservation = std::max(0.0, app.reservation());

  // Walk back from the last finisher along the dependency with the greatest
  // finish time — the classic schedule-length chain.
  std::vector<const TaskExec*> chain;
  const TaskExec* current = last_finisher(app);
  std::unordered_set<std::uint32_t> visited;
  while (current != nullptr && visited.insert(current->task).second) {
    chain.push_back(current);
    const TaskExec* next = nullptr;
    for (std::uint32_t dep : current->deps) {
      const TaskExec* d = app.find_task(dep);
      if (d == nullptr) continue;
      if (next == nullptr || d->finished > next->finished ||
          (d->finished == next->finished && d->task < next->task)) {
        next = d;
      }
    }
    current = next;
  }
  std::reverse(chain.begin(), chain.end());

  // Tile [exec_started, completed]: gap hops lead into each chain task's
  // compute hop; a final completion hop covers coordinator notification.
  double cursor = app.exec_started;
  bool first = true;
  for (const TaskExec* t : chain) {
    const double exec_start = std::max(cursor, t->started);
    carve_gap(app, cursor, exec_start, t->task, t->name,
              first ? HopKind::kStartup : HopKind::kWait, path.hops);
    const double exec_end = std::max(exec_start, t->finished);
    if (exec_end - exec_start > kEps || chain.size() == 1) {
      path.hops.push_back(
          {HopKind::kCompute, t->task, t->name, exec_start, exec_end});
    }
    cursor = exec_end;
    path.task_chain.push_back(t->task);
    first = false;
  }
  if (app.completed - cursor > kEps || path.hops.empty()) {
    path.hops.push_back({HopKind::kCompletion, kNoCausalId,
                         "completion notice", cursor, app.completed});
  }

  // Exact tiling: gap carving works with transfer-interval endpoints that
  // can sit within kEps of a compute boundary, leaving sub-epsilon seams.
  // Snap every hop to its predecessor's end (and the final hop to the
  // reported completion time) so consecutive hops share boundaries exactly
  // and durations sum to the makespan; hops the snap collapses are dropped.
  std::vector<CriticalHop> tiled;
  double edge = app.exec_started;
  for (CriticalHop hop : path.hops) {
    hop.start = edge;
    if (hop.end < hop.start) hop.end = hop.start;
    edge = hop.end;
    if (hop.end > hop.start) tiled.push_back(hop);
  }
  if (!tiled.empty()) {
    tiled.back().end = app.completed;
  } else if (!path.hops.empty()) {
    CriticalHop whole = path.hops.back();
    whole.start = app.exec_started;
    whole.end = app.completed;
    tiled.push_back(whole);
  }
  path.hops = std::move(tiled);

  for (const CriticalHop& hop : path.hops) {
    switch (hop.kind) {
      case HopKind::kStartup: path.phases.startup += hop.duration(); break;
      case HopKind::kCompute: path.phases.compute += hop.duration(); break;
      case HopKind::kTransfer: path.phases.transfer += hop.duration(); break;
      case HopKind::kWait: path.phases.wait += hop.duration(); break;
      case HopKind::kRecovery: path.phases.recovery += hop.duration(); break;
      case HopKind::kCompletion:
        path.phases.completion += hop.duration();
        break;
    }
  }
  return path;
}

Timeline timeline(const AppTrace& app, const std::vector<TrackInfo>& tracks) {
  Timeline tl;
  tl.horizon_start = app.exec_started;
  tl.horizon_end = app.completed;
  const double horizon = tl.horizon_end - tl.horizon_start;

  auto track_name = [&](std::uint32_t host) -> std::string {
    for (const TrackInfo& t : tracks) {
      if (t.track == host && !t.name.empty()) return t.name;
    }
    return host == kControlTrack ? "control" : "host " + std::to_string(host);
  };
  auto track_site = [&](std::uint32_t host) -> std::uint32_t {
    for (const TrackInfo& t : tracks) {
      if (t.track == host) return t.site;
    }
    return kNoCausalId;
  };

  // Hosts: one lane per machine that executed a task.
  std::map<std::uint32_t, HostTimeline> hosts;
  for (const TaskExec& t : app.tasks) {
    HostTimeline& h = hosts[t.host];
    h.host = t.host;
    h.busy.push_back({t.started, t.finished, t.name, t.task});
  }
  for (auto& [host, h] : hosts) {
    h.name = track_name(host);
    h.site = track_site(host);
    std::sort(h.busy.begin(), h.busy.end(),
              [](const TimelineSpan& a, const TimelineSpan& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.task < b.task;
              });
    for (const TimelineSpan& s : h.busy) h.busy_time += s.end - s.start;
    h.utilization = horizon > 0 ? h.busy_time / horizon : 0.0;

    // Idle-gap attribution: walk the horizon minus busy spans; idle time
    // with an inbound transfer in flight is "waiting on data", the rest is
    // plain waiting (dependency / scheduler / nothing assigned).
    double cursor = tl.horizon_start;
    auto attribute_idle = [&](double s, double e) {
      if (e - s <= kEps) return;
      double covered = 0.0;
      std::vector<std::pair<double, double>> cover;
      for (const Transfer& tr : app.transfers) {
        if (tr.dst_host != host) continue;
        const double cs = std::max(s, tr.started);
        const double ce = std::min(e, tr.finished);
        if (ce - cs > kEps) cover.emplace_back(cs, ce);
      }
      std::sort(cover.begin(), cover.end());
      double mark = s;
      for (const auto& iv : cover) {
        const double cs = std::max(mark, iv.first);
        const double ce = std::max(cs, iv.second);
        covered += ce - cs;
        mark = std::max(mark, ce);
      }
      h.idle_transfer += covered;
      h.idle_wait += (e - s) - covered;
    };
    for (const TimelineSpan& s : h.busy) {
      attribute_idle(cursor, s.start);
      cursor = std::max(cursor, s.end);
    }
    attribute_idle(cursor, tl.horizon_end);
  }
  for (auto& [host, h] : hosts) tl.hosts.push_back(std::move(h));

  // Links: one lane per (src, dst) pair that moved task payloads.
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkTimeline> links;
  for (const Transfer& tr : app.transfers) {
    LinkTimeline& l = links[{tr.src_host, tr.dst_host}];
    l.src_host = tr.src_host;
    l.dst_host = tr.dst_host;
    std::string label =
        (tr.src_task == kNoCausalId ? std::string("stage")
                                    : "task " + std::to_string(tr.src_task)) +
        " -> task " + std::to_string(tr.dst_task);
    l.transfers.push_back({tr.started, tr.finished, std::move(label),
                           tr.dst_task});
    l.busy_time += tr.finished - tr.started;
    l.bytes += tr.bytes;
  }
  for (auto& [key, l] : links) {
    l.name = track_name(l.src_host) + " -> " + track_name(l.dst_host);
    std::sort(l.transfers.begin(), l.transfers.end(),
              [](const TimelineSpan& a, const TimelineSpan& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.task < b.task;
              });
    tl.links.push_back(std::move(l));
  }
  return tl;
}

std::vector<WhatIf> what_if(const AppTrace& app, double speedup) {
  std::vector<WhatIf> out;
  if (app.tasks.empty() || speedup <= 0.0) return out;

  // Process tasks in original start order — a valid topological order,
  // because a dependency always finished before its consumer started.
  std::vector<const TaskExec*> order;
  order.reserve(app.tasks.size());
  for (const TaskExec& t : app.tasks) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const TaskExec* a, const TaskExec* b) {
              return a->started != b->started ? a->started < b->started
                                              : a->task < b->task;
            });

  double last_finish = 0.0;
  for (const TaskExec& t : app.tasks) {
    last_finish = std::max(last_finish, t.finished);
  }
  // Coordinator tail (last task finished -> completion notice arrived):
  // unaffected by task durations, preserved verbatim.
  const double tail = app.completed - last_finish;

  const CriticalPath cp = critical_path(app);
  auto on_path = [&](std::uint32_t task) {
    for (std::uint32_t id : cp.task_chain) {
      if (id == task) return true;
    }
    return false;
  };

  for (const TaskExec& target : app.tasks) {
    // PERT forward pass with original per-edge lags preserved.  With no
    // task changed this reproduces the original times exactly, so deltas
    // are pure slack, not model error.
    std::unordered_map<std::uint32_t, double> new_end;
    double makespan_end = 0.0;
    for (const TaskExec* t : order) {
      bool has_dep = false;
      double start = -1e300;
      for (std::uint32_t dep : t->deps) {
        const TaskExec* d = app.find_task(dep);
        if (d == nullptr) continue;
        auto it = new_end.find(dep);
        if (it == new_end.end()) continue;
        has_dep = true;
        const double lag = t->started - d->finished;
        start = std::max(start, it->second + lag);
      }
      // Tasks with no executed deps anchor at their original start
      // (preserving their lag from the startup signal).
      if (!has_dep) start = t->started;
      double duration = t->finished - t->started;
      if (t->task == target.task) duration /= speedup;
      const double end = start + duration;
      new_end[t->task] = end;
      makespan_end = std::max(makespan_end, end);
    }
    const double new_makespan = makespan_end + tail - app.exec_started;
    const double old_makespan = app.makespan();
    WhatIf w;
    w.task = target.task;
    w.name = target.name;
    w.speedup = speedup;
    w.new_makespan = new_makespan;
    w.makespan_delta_pct =
        old_makespan > 0 ? (new_makespan - old_makespan) / old_makespan * 100.0
                         : 0.0;
    w.on_critical_path = on_path(target.task);
    out.push_back(std::move(w));
  }
  std::sort(out.begin(), out.end(), [](const WhatIf& a, const WhatIf& b) {
    return a.makespan_delta_pct != b.makespan_delta_pct
               ? a.makespan_delta_pct < b.makespan_delta_pct
               : a.task < b.task;
  });
  return out;
}

// ---- offline extraction ----------------------------------------------------

std::vector<AppTrace> extract_apps(const ParsedTrace& trace) {
  std::map<std::uint32_t, AppTrace> apps;
  auto app_of = [&](std::uint32_t id) -> AppTrace& {
    AppTrace& app = apps[id];
    app.app = id;
    return app;
  };

  for (const TraceEvent& ev : trace.events) {
    const std::uint32_t app_id = ev.causal.app;
    if (app_id == kNoCausalId) continue;

    if (ev.name == "app.run") {
      AppTrace& app = app_of(app_id);
      app.exec_started = ev.start;
      app.completed = ev.end();
      const std::string* name = ev.find_arg("name");
      app.name = name != nullptr ? *name : std::string();
    } else if (ev.name == "app.contention") {
      AppTrace& app = app_of(app_id);
      app.enqueued = ev.start;
      app.admitted = ev.end();
      if (app.released < app.admitted) app.released = app.admitted;
    } else if (ev.name == "app.reservation") {
      // Advance-reservation park [admitted, released].  When no contention
      // span preceded it the submission never queued, so the span start is
      // also its enqueue/admission instant.
      AppTrace& app = app_of(app_id);
      app.released = ev.end();
      if (app.admitted == 0.0) {
        app.enqueued = ev.start;
        app.admitted = ev.start;
      }
    } else if (ev.name == "exec.task" && ev.causal.task != kNoCausalId) {
      AppTrace& app = app_of(app_id);
      const std::string* arg = ev.find_arg("task");
      std::string name = arg != nullptr ? *arg : std::string();
      if (name.empty()) name = "task " + std::to_string(ev.causal.task);
      // Keep the attempt that finished last (relaunches re-emit the span);
      // earlier attempts only bump the attempt count.
      if (TaskExec* existing =
              const_cast<TaskExec*>(app.find_task(ev.causal.task))) {
        ++existing->attempts;
        if (ev.end() > existing->finished) {
          existing->started = ev.start;
          existing->finished = ev.end();
          existing->host = ev.track;
          existing->name = std::move(name);
          existing->deps = ev.causal.deps;
        }
      } else {
        TaskExec t;
        t.task = ev.causal.task;
        t.name = std::move(name);
        t.started = ev.start;
        t.finished = ev.end();
        t.host = ev.track;
        t.deps = ev.causal.deps;
        app.tasks.push_back(std::move(t));
      }
    } else if (ev.name == "fabric.transfer" &&
               ev.causal.task != kNoCausalId) {
      AppTrace& app = app_of(app_id);
      Transfer tr;
      tr.src_task = ev.causal.src_task;
      tr.dst_task = ev.causal.task;
      tr.started = ev.start;
      tr.finished = ev.end();
      tr.src_host = ev.track;
      const std::string* dst = ev.find_arg("dst");
      tr.dst_host = dst != nullptr ? static_cast<std::uint32_t>(
                                         std::strtod(dst->c_str(), nullptr))
                                   : kControlTrack;
      const std::string* bytes = ev.find_arg("bytes");
      tr.bytes = bytes != nullptr ? std::strtod(bytes->c_str(), nullptr) : 0.0;
      app.transfers.push_back(tr);
    } else if (ev.category == "recovery") {
      AppTrace& app = app_of(app_id);
      RecoveryMark mark;
      mark.at = ev.start;
      mark.task = ev.causal.task;
      constexpr std::string_view prefix = "recovery.";
      mark.reason = ev.name.size() > prefix.size() &&
                            std::string_view(ev.name).substr(
                                0, prefix.size()) == prefix
                        ? ev.name.substr(prefix.size())
                        : ev.name;
      app.recoveries.push_back(std::move(mark));
    }
  }

  std::vector<AppTrace> out;
  for (auto& [id, app] : apps) {
    // A run that never completed has no app.run span; cover its events.
    if (app.completed <= app.exec_started) {
      double lo = 1e300, hi = 0.0;
      for (const TaskExec& t : app.tasks) {
        lo = std::min(lo, t.started);
        hi = std::max(hi, t.finished);
      }
      if (hi > 0.0) {
        app.exec_started = lo;
        app.completed = hi;
      }
    }
    out.push_back(std::move(app));
  }
  return out;
}

// ---- text report -----------------------------------------------------------

namespace {

std::string fixed(double v, int precision = 3) {
  return common::format_double(v, precision);
}

std::string pad_left(std::string s, std::size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

std::string pad_right(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

}  // namespace

std::string render_report(const AppTrace& app,
                          const std::vector<TrackInfo>& tracks) {
  const CriticalPath cp = critical_path(app);
  const Timeline tl = timeline(app, tracks);
  const std::vector<WhatIf> wi = what_if(app, 2.0);

  std::string out;
  out += "== application " + std::to_string(app.app);
  if (!app.name.empty()) out += " \"" + app.name + "\"";
  out += " ==\n";
  out += "makespan " + fixed(cp.makespan) + " s over " +
         std::to_string(app.tasks.size()) + " tasks, " +
         std::to_string(app.transfers.size()) + " transfers, " +
         std::to_string(app.recoveries.size()) + " recovery actions\n\n";

  out += "critical path (" + std::to_string(cp.hops.size()) + " hops, sum " +
         fixed(cp.phases.total()) + " s):\n";
  for (const CriticalHop& hop : cp.hops) {
    out += "  [" + pad_left(fixed(hop.start), 9) + " .. " +
           pad_left(fixed(hop.end), 9) + "] " +
           pad_left(fixed(hop.duration()), 8) + "  " +
           pad_right(to_string(hop.kind), 10);
    if (hop.kind == HopKind::kCompute) {
      out += " " + hop.label + " (task " + std::to_string(hop.task) + ")";
    } else if (hop.task != kNoCausalId &&
               hop.kind != HopKind::kCompletion) {
      out += " -> " + hop.label;
    }
    out += "\n";
  }
  out += "phases: startup " + fixed(cp.phases.startup) + "  compute " +
         fixed(cp.phases.compute) + "  transfer " + fixed(cp.phases.transfer) +
         "  wait " + fixed(cp.phases.wait) + "  recovery " +
         fixed(cp.phases.recovery) + "  completion " +
         fixed(cp.phases.completion) + "\n";
  if (cp.phases.contention > 0.0) {
    out += "admission contention (before execution, outside makespan): " +
           fixed(cp.phases.contention) + " s\n";
  }
  if (cp.phases.reservation > 0.0) {
    out += "reservation wait (before execution, outside makespan): " +
           fixed(cp.phases.reservation) + " s\n";
  }
  out += "\n";

  out += "hosts:\n";
  for (const HostTimeline& h : tl.hosts) {
    out += "  " + pad_right(h.name, 12) +
           (h.site != kNoCausalId ? " site " + std::to_string(h.site) : "") +
           "  busy " + fixed(h.busy_time) + " s (" +
           fixed(h.utilization * 100.0, 1) + "%)  idle: transfer " +
           fixed(h.idle_transfer) + " s, wait " + fixed(h.idle_wait) +
           " s  tasks " + std::to_string(h.busy.size()) + "\n";
    for (const TimelineSpan& s : h.busy) {
      out += "      [" + pad_left(fixed(s.start), 9) + " .. " +
             pad_left(fixed(s.end), 9) + "] " + s.label + "\n";
    }
  }
  if (tl.hosts.empty()) out += "  (no task executions recorded)\n";

  if (!tl.links.empty()) {
    out += "\nlinks:\n";
    for (const LinkTimeline& l : tl.links) {
      out += "  " + pad_right(l.name, 24) + "  " +
             std::to_string(l.transfers.size()) + " transfers, busy " +
             fixed(l.busy_time) + " s, " + fixed(l.bytes, 0) + " bytes\n";
    }
  }

  if (!wi.empty()) {
    out += "\nwhat-if (each task 2x faster, alone):\n";
    for (const WhatIf& w : wi) {
      out += "  " + pad_right(w.name, 16) + " makespan " +
             pad_left(fixed(w.new_makespan), 9) + " s (" +
             (w.makespan_delta_pct > 0 ? "+" : "") +
             fixed(w.makespan_delta_pct, 2) + "%)" +
             (w.on_critical_path ? "  [critical]" : "") + "\n";
    }
  }
  return out;
}

}  // namespace vdce::obs::causal
