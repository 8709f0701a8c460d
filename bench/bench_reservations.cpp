// E15 — advance reservations and conservative backfill
// (docs/RESERVATIONS.md): walk-in latency and window fidelity vs. booking
// density, with backfill off and on.
//
// For each configuration the bench brings up a generated grid, commits
// `bookings` future windows (three non-server machines each, staggered
// starts), submits one reserved application per window at t=0 (each parks
// until its window opens) plus a fleet of walk-in filler applications, and
// drains.  Reported per configuration:
//
//   * completed owners / fillers and p50 / max filler submit->complete
//     latency — the cost walk-ins pay for pending windows, and what
//     conservative backfill buys back;
//   * the owners' release delay (released minus window start — exactly zero
//     when the window plumbing is honest) and first-task start delay;
//   * a window-exclusivity audit: no filler task interval may overlap
//     [window.start, owner completion) on a booked machine (after the owner
//     finalizes, the spent window is cancelled and the machines are free).
//
// Writes BENCH_RESERVATIONS.json (bench_util.hpp schema; --smoke runs
// fewer/smaller configurations).  Checks: every application completed,
// every owner was released exactly at its window start, no filler task
// violated a committed window, enabling backfill moved no owner's start
// (the no-delay invariant), and the flagship configuration replays
// byte-identically.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "editor/builder.hpp"
#include "scale/generate.hpp"
#include "vdce/environment.hpp"

namespace {

using namespace vdce;

/// Fan-out owner application: long enough that the window matters.
afg::Afg owner_app(const std::string& name) {
  editor::AppBuilder app(name);
  auto head = app.task("head", "synthetic.w200").output_data(2e4);
  auto tail = app.task("tail", "synthetic.w200");
  for (int i = 0; i < 3; ++i) {
    auto body = app.task("body" + std::to_string(i), "synthetic.w600")
                    .output_data(2e4);
    if (!app.link(head, body) || !app.link(body, tail)) std::abort();
  }
  return app.build().value();
}

/// Small walk-in filler: two chained tasks, cheap enough to backfill.
afg::Afg filler_app(const std::string& name) {
  editor::AppBuilder app(name);
  auto a = app.task("a", "synthetic.w150").output_data(1e4);
  auto b = app.task("b", "synthetic.w150");
  if (!app.link(a, b)) std::abort();
  return app.build().value();
}

/// One committed window plus what its owner actually did.
struct OwnerOutcome {
  double window_start = 0.0;
  double window_end = 0.0;
  std::vector<std::uint32_t> hosts;
  double released = 0.0;     ///< when the runtime released the parked app
  double first_start = 0.0;  ///< earliest task start
  double completed = 0.0;    ///< owner finalize (spent window cancelled here)
  bool success = false;
};

struct Measurement {
  std::size_t bookings = 0;
  bool backfill = false;
  std::size_t owners_completed = 0;
  std::size_t fillers_completed = 0;
  std::size_t fillers_submitted = 0;
  double filler_p50 = 0.0;
  double filler_max = 0.0;
  double release_delay_max = 0.0;  ///< max |released - window.start|
  double start_delay_max = 0.0;    ///< max first task start - window.start
  double reservation_wait = 0.0;   ///< summed owner reservation phase
  double wall_ms = 0.0;
  bool window_exclusive = false;
  bool all_success = false;
  std::vector<double> owner_starts;  ///< per-owner first_start, booking order
  std::string trace_jsonl;           ///< only when `want_trace`
};

Measurement measure(std::size_t bookings, bool backfill, bool smoke,
                    bool want_trace) {
  Measurement m;
  m.bookings = bookings;
  m.backfill = backfill;
  const double t0 = bench::now_ms();

  ScaleSpec spec;
  spec.grid.sites = smoke ? 2 : 3;
  spec.grid.hosts_per_site = smoke ? 6 : 10;
  spec.grid.seed = 41;
  spec.options.runtime.exec_noise_cv = 0.0;
  spec.options.trace.enabled = want_trace;
  auto env = VdceEnvironment::make_scale_environment(spec);
  if (!env) {
    std::fprintf(stderr, "bring-up failed: %s\n",
                 env.error().to_string().c_str());
    return m;
  }
  auto session =
      (*env)->login(common::SiteId(0), spec.admin_user, spec.admin_password);
  if (!session) {
    std::fprintf(stderr, "login failed: %s\n",
                 session.error().to_string().c_str());
    return m;
  }

  // Book `bookings` windows over disjoint triples of non-server machines,
  // starts staggered so the release cascade is visible in the trace.
  std::vector<common::HostId> pool;
  for (const net::Site& s : (*env)->sites()) {
    for (common::HostId h : s.hosts) {
      if (h != s.server) pool.push_back(h);
    }
  }
  std::vector<OwnerOutcome> owners;
  std::vector<AppHandle> owner_handles;
  std::vector<afg::Afg> owner_graphs;
  for (std::size_t b = 0; b < bookings; ++b) {
    OwnerOutcome o;
    o.window_start = 40.0 + 15.0 * static_cast<double>(b);
    o.window_end = o.window_start + 200.0;
    ReservationRequest request;
    for (std::size_t k = 0; k < 3; ++k) {
      const common::HostId h = pool[(3 * b + k) % pool.size()];
      request.hosts.push_back(h);
      o.hosts.push_back(h.value());
    }
    request.start = o.window_start;
    request.end = o.window_end;
    auto ticket = (*env)->reserve(*session, request);
    if (!ticket) {
      std::fprintf(stderr, "reserve failed: %s\n",
                   ticket.error().to_string().c_str());
      return m;
    }
    RunOptions run;
    run.real_kernels = false;
    run.reservation = *ticket;
    owner_graphs.push_back(owner_app("owner" + std::to_string(b)));
    auto handle =
        (*env)->submit_application(owner_graphs.back(), *session, run);
    if (!handle) {
      std::fprintf(stderr, "owner submit failed: %s\n",
                   handle.error().to_string().c_str());
      return m;
    }
    owner_handles.push_back(*handle);
    owners.push_back(std::move(o));
  }

  // Walk-in fleet, submitted while every window is still pending.
  const std::size_t fillers = smoke ? 4 : 8;
  std::vector<AppHandle> filler_handles;
  for (std::size_t f = 0; f < fillers; ++f) {
    RunOptions run;
    run.real_kernels = false;
    run.sched.backfill = backfill;  // per-run knob (docs/RESERVATIONS.md)
    auto handle = (*env)->submit_application(
        filler_app("filler" + std::to_string(f)), *session, run);
    ++m.fillers_submitted;
    if (!handle) {
      std::fprintf(stderr, "filler submit rejected: %s\n",
                   handle.error().to_string().c_str());
      continue;
    }
    filler_handles.push_back(*handle);
  }

  auto drained = (*env)->drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n",
                 drained.error().to_string().c_str());
    return m;
  }

  bool all_success = true;
  for (std::size_t b = 0; b < owners.size(); ++b) {
    auto report = (*env)->report(owner_handles[b]);
    if (!report || !report->success) {
      all_success = false;
      continue;
    }
    OwnerOutcome& o = owners[b];
    o.success = true;
    o.released = report->released;
    o.completed = report->completed;
    o.first_start = report->completed;
    for (const runtime::TaskOutcome& out : report->outcomes) {
      o.first_start = std::min(o.first_start, out.started);
    }
    ++m.owners_completed;
    m.release_delay_max = std::max(m.release_delay_max,
                                   std::fabs(o.released - o.window_start));
    m.start_delay_max =
        std::max(m.start_delay_max, o.first_start - o.window_start);
    m.reservation_wait += report->breakdown().reservation;
    m.owner_starts.push_back(o.first_start);
  }

  // Filler latency plus the window-exclusivity audit.
  std::vector<double> latencies;
  bool exclusive = true;
  for (AppHandle h : filler_handles) {
    auto report = (*env)->report(h);
    if (!report || !report->success) {
      all_success = false;
      continue;
    }
    ++m.fillers_completed;
    latencies.push_back(report->completed - report->enqueued);
    for (const runtime::TaskOutcome& out : report->outcomes) {
      for (const OwnerOutcome& o : owners) {
        if (!o.success) continue;
        const bool booked_host =
            std::find(o.hosts.begin(), o.hosts.end(), out.host.value()) !=
            o.hosts.end();
        // The window is live from its start until the owner finalizes
        // (spent windows are cancelled early, freeing the machines).
        const double live_end = std::min(o.window_end, o.completed);
        if (booked_host && out.started < live_end &&
            out.finished > o.window_start) {
          exclusive = false;
          std::fprintf(stderr,
                       "WINDOW VIOLATION: filler task on host %u ran "
                       "[%s, %s] inside window [%s, %s)\n",
                       out.host.value(), bench::json_num(out.started).c_str(),
                       bench::json_num(out.finished).c_str(),
                       bench::json_num(o.window_start).c_str(),
                       bench::json_num(live_end).c_str());
        }
      }
    }
  }
  m.all_success = all_success && m.owners_completed == owners.size();
  m.window_exclusive = exclusive;

  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    m.filler_p50 = latencies[latencies.size() / 2];
    m.filler_max = latencies.back();
  }
  if (want_trace) m.trace_jsonl = (*env)->trace().to_jsonl();
  m.wall_ms = bench::now_ms() - t0;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run(argc, argv, "reservations", "BENCH_RESERVATIONS.json");
  const bool smoke = run.smoke();

  bench::print_title("E15",
                     "advance reservations: walk-in latency vs. booking "
                     "density, backfill off/on");
  bench::print_note(
      "Each configuration commits future windows, parks one owner per window,\n"
      "and floods walk-in fillers.  Conservative backfill may only start a\n"
      "filler whose guarded completion estimate lands before every pending\n"
      "window -- owners must be released exactly at their window start.");

  const std::vector<std::size_t> densities =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4};

  bool all_success = true;
  bool window_exclusive = true;
  bool release_exact = true;
  bool no_delay = true;
  for (std::size_t bookings : densities) {
    std::vector<double> starts_without;
    for (const bool backfill : {false, true}) {
      Measurement m = measure(bookings, backfill, smoke, /*want_trace=*/false);
      all_success = all_success && m.all_success;
      window_exclusive = window_exclusive && m.window_exclusive;
      release_exact = release_exact && m.release_delay_max == 0.0;
      // The no-delay invariant: switching backfill ON must leave every
      // owner's first task start exactly where it was with backfill OFF.
      if (!backfill) {
        starts_without = m.owner_starts;
      } else if (m.owner_starts != starts_without) {
        no_delay = false;
        std::fprintf(stderr,
                     "NO-DELAY VIOLATION: backfill moved an owner start "
                     "(bookings=%zu)\n",
                     bookings);
      }
      run.row("configs")
          .num("bookings", m.bookings)
          .flag("backfill", backfill)
          .num("owners_completed", m.owners_completed)
          .num("fillers_completed", m.fillers_completed)
          .num("fillers_submitted", m.fillers_submitted)
          .num("filler_p50_s", m.filler_p50)
          .num("filler_max_s", m.filler_max)
          .num("release_err_s", m.release_delay_max)
          .num("start_delay_s", m.start_delay_max)
          .num("reservation_wait_s", m.reservation_wait)
          .num("wall_ms", m.wall_ms)
          .flag("all_success", m.all_success)
          .flag("window_exclusive", m.window_exclusive);
    }
  }

  // Determinism gate: the densest backfill-on configuration, replayed with
  // tracing, must produce byte-identical traces.
  const Measurement rep1 =
      measure(densities.back(), /*backfill=*/true, smoke, /*want_trace=*/true);
  const Measurement rep2 =
      measure(densities.back(), /*backfill=*/true, smoke, /*want_trace=*/true);
  const bool deterministic =
      !rep1.trace_jsonl.empty() && rep1.trace_jsonl == rep2.trace_jsonl;

  run.table("configs");
  run.row("summary")
      .flag("all_success", all_success)
      .flag("window_exclusive", window_exclusive)
      .flag("release_exact", release_exact)
      .flag("no_delay", no_delay)
      .flag("deterministic", deterministic);
  run.check("all_success", all_success,
            "every owner and filler application completed");
  run.check("window_exclusive", window_exclusive,
            "no walk-in task ran inside a committed window");
  run.check("release_exact", release_exact,
            "every owner released exactly at its window start");
  run.check("no_delay", no_delay,
            "conservative backfill moved no owner's first start");
  run.check("deterministic", deterministic,
            "densest backfill-on configuration replays byte-identically");
  return run.finish();
}
