#include "scale/generate.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>
#include <vector>

#include "afg/generate.hpp"

namespace vdce::scale {

namespace {

struct MachineClass {
  const char* arch;
  const char* os;
  const char* machine_type;
};

// The 1997 campus classes of vdce::make_testbed plus the commodity-cluster
// classes a grid of this size would federate.
constexpr std::array<MachineClass, 7> kClasses{{
    {"sparc", "sunos", "SUN sparc"},
    {"sparc", "solaris", "SUN solaris"},
    {"mips", "irix", "SGI"},
    {"alpha", "osf1", "DEC alpha"},
    {"x86", "linux", "Intel pentium"},
    {"x86", "freebsd", "Intel pentium"},
    {"ppc", "aix", "IBM rs6000"},
}};

constexpr std::array<double, 5> kMemoryLadderMb{64.0, 128.0, 256.0, 512.0,
                                                1024.0};

std::string synth_task_name(double mflop) {
  return "synthetic.w" + std::to_string(static_cast<long long>(mflop));
}

afg::TaskProperties synth_props(int fan_in, double output_bytes,
                                afg::ComputationMode mode, int num_nodes) {
  afg::TaskProperties p;
  p.mode = mode;
  p.num_nodes = num_nodes;
  p.inputs.resize(static_cast<std::size_t>(fan_in));
  p.outputs.push_back(afg::FileSpec{"", output_bytes, false});
  return p;
}

/// Bounded-fan-in random DAG.  Structure is drawn in one pass (so the port
/// counts are known before any task is added), then the graph is built —
/// connect() requires declared input ports.
afg::Afg make_random_dag(const WorkloadSpec& spec, common::Rng& rng,
                         const std::string& name) {
  const std::size_t n = spec.tasks;
  const std::size_t cap = std::max<std::size_t>(spec.max_fan_in, 1);
  std::vector<std::vector<std::size_t>> parents(n);
  // The pool of the draw below, kept sparse: (position, value) for each
  // position a swap wrote, newest last; every other position holds its
  // own index.
  std::vector<std::pair<std::size_t, std::size_t>> moved;
  moved.reserve(cap);
  const auto pool_at = [&moved](std::size_t pos) {
    for (auto it = moved.rbegin(); it != moved.rend(); ++it) {
      if (it->first == pos) return it->second;
    }
    return pos;
  };
  for (std::size_t i = 1; i < n; ++i) {
    if (rng.chance(spec.entry_density)) continue;  // extra entry task
    const std::size_t d = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(std::min(i, cap))));
    // Partial Fisher-Yates over the predecessors 0..i-1: d distinct
    // parents.  Step j swaps pool[j] with pool[k] and takes the new
    // pool[j]; later steps read positions > j only, so just pool[k] is
    // written back.  Same pick_index calls and swaps as a dense pool, so
    // the same parents, in O(d²) instead of O(i) per task.
    moved.clear();
    for (std::size_t j = 0; j < d; ++j) {
      const std::size_t k = j + rng.pick_index(i - j);
      const std::size_t picked = pool_at(k);
      moved.emplace_back(k, pool_at(j));
      parents[i].push_back(picked);
    }
    // Sorted for a canonical port order (the draw itself stays random).
    std::sort(parents[i].begin(), parents[i].end());
  }

  afg::Afg graph(name);
  std::vector<afg::TaskId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    double mflop = rng.uniform(spec.min_mflop, spec.max_mflop);
    double out_bytes = rng.uniform(spec.min_output_bytes,
                                   spec.max_output_bytes);
    bool parallel = rng.chance(spec.parallel_fraction);
    int nodes = parallel ? static_cast<int>(rng.uniform_int(2, 4)) : 1;
    auto id = graph.add_task(
        "t" + std::to_string(i), synth_task_name(mflop),
        synth_props(static_cast<int>(parents[i].size()), out_bytes,
                    parallel ? afg::ComputationMode::kParallel
                             : afg::ComputationMode::kSequential,
                    nodes));
    assert(id);
    ids[i] = *id;
  }
  for (std::size_t i = 0; i < n; ++i) {
    int port = 0;
    for (std::size_t p : parents[i]) {
      auto st = graph.connect(ids[p], 0, ids[i], port++);
      assert(st.ok());
    }
  }
  return graph;
}

}  // namespace

net::Topology make_grid(const GridSpec& spec) {
  assert(spec.sites >= 1 && spec.hosts_per_site >= 1 && spec.group_size >= 1);
  assert(!spec.lan_tiers.empty());
  common::Rng rng(spec.seed);
  net::Topology topology;

  for (std::size_t s = 0; s < spec.sites; ++s) {
    const net::LinkSpec lan = spec.lan_tiers[rng.pick_index(spec.lan_tiers.size())];
    auto site = topology.add_site("grid" + std::to_string(s), lan);
    for (std::size_t h = 0; h < spec.hosts_per_site; ++h) {
      const MachineClass& mc = kClasses[rng.pick_index(kClasses.size())];
      net::HostSpec host;
      host.name = "n" + std::to_string(h) + ".grid" + std::to_string(s) +
                  ".vdce.org";
      host.ip = "10." + std::to_string(128 + s / 250) + "." +
                std::to_string(s % 250) + "." + std::to_string(h % 250 + 1);
      host.arch = mc.arch;
      host.os = mc.os;
      host.machine_type = mc.machine_type;
      host.speed_mflops = rng.uniform(spec.min_mflops, spec.max_mflops);
      host.memory_mb = kMemoryLadderMb[rng.pick_index(kMemoryLadderMb.size())];
      auto id = topology.add_host(site, std::move(host),
                                  static_cast<int>(h / spec.group_size));
      topology.set_cpu_load(id, rng.normal(spec.load_mean, spec.load_stddev));
    }
  }

  // Pairwise WAN links, each drawn from the regional or long-haul tier.
  for (std::size_t a = 0; a < spec.sites; ++a) {
    for (std::size_t b = a + 1; b < spec.sites; ++b) {
      const bool regional = rng.chance(spec.regional_fraction);
      const double lat =
          regional ? rng.uniform(spec.regional_latency_min,
                                 spec.regional_latency_max)
                   : rng.uniform(spec.longhaul_latency_min,
                                 spec.longhaul_latency_max);
      const double bw =
          regional ? rng.uniform(spec.regional_bandwidth_min,
                                 spec.regional_bandwidth_max)
                   : rng.uniform(spec.longhaul_bandwidth_min,
                                 spec.longhaul_bandwidth_max);
      topology.set_wan_link(common::SiteId(static_cast<std::uint32_t>(a)),
                            common::SiteId(static_cast<std::uint32_t>(b)),
                            net::LinkSpec{lat, bw});
    }
  }
  return topology;
}

afg::Afg make_workload(const WorkloadSpec& spec, const std::string& name) {
  assert(spec.tasks >= 1);
  common::Rng rng(spec.seed);
  switch (spec.shape) {
    case WorkloadShape::kLayered: {
      afg::LayeredDagSpec dag;
      dag.tasks = spec.tasks;
      dag.width = std::max<std::size_t>(spec.width, 1);
      dag.edge_density = spec.edge_density;
      dag.min_mflop = spec.min_mflop;
      dag.max_mflop = spec.max_mflop;
      dag.min_output_bytes = spec.min_output_bytes;
      dag.max_output_bytes = spec.max_output_bytes;
      dag.parallel_task_fraction = spec.parallel_fraction;
      return afg::make_layered_dag(dag, rng, name);
    }
    case WorkloadShape::kForkJoin: {
      // tasks ≈ 2 + width * depth; keep at least depth 1.
      const std::size_t width = std::max<std::size_t>(spec.width, 1);
      const std::size_t body = spec.tasks > 2 ? spec.tasks - 2 : 1;
      const std::size_t depth = std::max<std::size_t>(body / width, 1);
      const double mflop = rng.uniform(spec.min_mflop, spec.max_mflop);
      const double bytes =
          rng.uniform(spec.min_output_bytes, spec.max_output_bytes);
      return afg::make_fork_join(width, depth, mflop, bytes, name);
    }
    case WorkloadShape::kRandomDag:
      return make_random_dag(spec, rng, name);
    case WorkloadShape::kParamSweep: {
      // Nimrod/G task farming: a light root fans one parameter file out to
      // `tasks - 2` identical sweep tasks; a sink gathers their results.
      // Homogeneous work is what makes the economy interesting — every
      // placement choice is purely a price/speed trade-off.
      const std::size_t sweeps = spec.tasks > 2 ? spec.tasks - 2 : 1;
      const double mflop = rng.uniform(spec.min_mflop, spec.max_mflop);
      const double param_bytes = spec.min_output_bytes;
      const double result_bytes =
          rng.uniform(spec.min_output_bytes, spec.max_output_bytes);
      afg::Afg graph(name);
      auto root = graph.add_task(
          "sweep-root", synth_task_name(spec.min_mflop),
          synth_props(0, param_bytes, afg::ComputationMode::kSequential, 1));
      assert(root);
      auto sink = graph.add_task(
          "sweep-gather", synth_task_name(spec.min_mflop),
          synth_props(static_cast<int>(sweeps), param_bytes,
                      afg::ComputationMode::kSequential, 1));
      assert(sink);
      for (std::size_t i = 0; i < sweeps; ++i) {
        auto id = graph.add_task(
            "sweep" + std::to_string(i), synth_task_name(mflop),
            synth_props(1, result_bytes, afg::ComputationMode::kSequential, 1));
        assert(id);
        auto in = graph.connect(*root, 0, *id, 0);
        assert(in.ok());
        auto out = graph.connect(*id, 0, *sink, static_cast<int>(i));
        assert(out.ok());
        (void)in;
        (void)out;
      }
      return graph;
    }
  }
  // Unreachable; keeps -Wreturn-type quiet on exotic compilers.
  return afg::Afg(name);
}

std::vector<CorpusCase> make_corpus(const CorpusSpec& spec) {
  common::Rng rng(spec.seed);
  std::vector<CorpusCase> corpus;
  corpus.reserve(spec.cases);
  constexpr std::array<WorkloadShape, 3> kShapes{
      WorkloadShape::kLayered, WorkloadShape::kForkJoin,
      WorkloadShape::kRandomDag};

  for (std::size_t i = 0; i < spec.cases; ++i) {
    CorpusCase c;
    c.index = i;

    const bool parallel = rng.chance(spec.parallel_fraction);

    c.grid.sites = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(spec.min_sites),
                        static_cast<std::int64_t>(spec.max_sites)));
    // Parallel groups need up to 4 feasible hosts in one site.
    const std::size_t min_hosts =
        parallel ? std::max<std::size_t>(spec.min_hosts_per_site, 4)
                 : spec.min_hosts_per_site;
    const std::size_t max_hosts =
        std::max(min_hosts, spec.max_hosts_per_site);
    c.grid.hosts_per_site = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(min_hosts),
                        static_cast<std::int64_t>(max_hosts)));
    c.grid.group_size = static_cast<std::size_t>(rng.uniform_int(2, 8));
    c.grid.seed = spec.seed * 1000003 + i * 2 + 1;

    c.workload.shape = kShapes[i % kShapes.size()];
    c.workload.tasks = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(spec.min_tasks),
                        static_cast<std::int64_t>(spec.max_tasks)));
    c.workload.width = static_cast<std::size_t>(rng.uniform_int(2, 10));
    c.workload.edge_density = rng.uniform(0.15, 0.8);
    c.workload.max_fan_in = static_cast<std::size_t>(rng.uniform_int(2, 8));
    c.workload.parallel_fraction = parallel ? 0.2 : 0.0;
    c.workload.seed = spec.seed * 1000033 + i * 2;

    corpus.push_back(std::move(c));
  }
  return corpus;
}

std::vector<TenantArrival> make_tenant_arrivals(const TenantSpec& spec) {
  static constexpr WorkloadShape kShapes[] = {
      WorkloadShape::kLayered, WorkloadShape::kForkJoin,
      WorkloadShape::kRandomDag};
  common::Rng rng(spec.seed);
  std::vector<TenantArrival> arrivals;
  arrivals.reserve(spec.tenants * spec.apps_per_tenant);
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    const int priority = static_cast<int>(
        rng.uniform_int(spec.min_priority, spec.max_priority));
    double clock = static_cast<double>(t) * spec.tenant_stagger;
    for (std::size_t k = 0; k < spec.apps_per_tenant; ++k) {
      clock += rng.uniform(spec.min_think, spec.max_think);
      TenantArrival a;
      a.tenant = t;
      a.user = "tenant" + std::to_string(t);
      a.priority = priority;
      a.at = clock;
      a.app_name = "t" + std::to_string(t) + "-app" + std::to_string(k);
      const std::size_t index = t * spec.apps_per_tenant + k;
      a.workload.shape = kShapes[index % std::size(kShapes)];
      a.workload.tasks = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(spec.min_tasks),
                          static_cast<std::int64_t>(spec.max_tasks)));
      a.workload.width = static_cast<std::size_t>(rng.uniform_int(2, 6));
      a.workload.edge_density = rng.uniform(0.2, 0.7);
      a.workload.max_fan_in = static_cast<std::size_t>(rng.uniform_int(2, 5));
      a.workload.seed = spec.seed * 1000081 + index;
      arrivals.push_back(std::move(a));
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const TenantArrival& a, const TenantArrival& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.tenant < b.tenant;
            });
  return arrivals;
}

}  // namespace vdce::scale
