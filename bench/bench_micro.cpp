// Micro-benchmarks (google-benchmark) for the hot paths underneath the
// experiment harness: the discrete-event kernel, fabric delivery, level
// computation, the schedulers themselves, and the compute kernels.
#include <benchmark/benchmark.h>

#include <memory>

#include "afg/generate.hpp"
#include "afg/levels.hpp"
#include "db/site_repository.hpp"
#include "net/fabric.hpp"
#include "sched/baselines.hpp"
#include "sched/site_scheduler.hpp"
#include "sim/engine.hpp"
#include "tasklib/matrix.hpp"
#include "tasklib/registry.hpp"
#include "tasklib/signal.hpp"
#include "vdce/testbed.hpp"

namespace {

using namespace vdce;

// ---- sim kernel -------------------------------------------------------------

void BM_EngineScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    int sink = 0;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_PeriodicTimers(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    int sink = 0;
    for (std::size_t i = 0; i < timers; ++i) {
      engine.every(1.0 + static_cast<double>(i % 7) * 0.1,
                   [&sink] { ++sink; });
    }
    engine.run_until(100.0);
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_PeriodicTimers)->Arg(16)->Arg(256);

// ---- fabric -----------------------------------------------------------------

const net::MsgType kBench("bench");

void BM_FabricSendDeliver(benchmark::State& state) {
  net::Topology topology = make_campus_pair();
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    net::Fabric fabric(engine, topology);
    int sink = 0;
    for (const net::Host& h : topology.hosts()) {
      fabric.bind(h.id, [&sink](const net::Message&) { ++sink; });
    }
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      (void)fabric.send(net::Message{
          common::HostId(static_cast<std::uint32_t>(i % 12)),
          common::HostId(static_cast<std::uint32_t>((i + 5) % 12)), kBench, 128,
          {}});
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FabricSendDeliver);

// ---- scheduling --------------------------------------------------------------

struct SchedBench {
  net::Topology topology;
  tasklib::TaskRegistry registry;
  std::vector<std::unique_ptr<db::SiteRepository>> repos;
  predict::Predictor predictor;
  sched::SchedulerContext context;

  SchedBench() {
    TestbedSpec spec;
    spec.sites = 4;
    spec.hosts_per_site = 8;
    topology = make_testbed(spec);
    tasklib::register_standard_libraries(registry);
    for (const net::Site& site : topology.sites()) {
      auto repo = std::make_unique<db::SiteRepository>(site.id);
      repo->register_site_hosts(topology);
      registry.seed_database(repo->tasks());
      repos.push_back(std::move(repo));
    }
    context.topology = &topology;
    for (auto& r : repos) context.repos.push_back(r.get());
    context.predictor = &predictor;
    context.local_site = common::SiteId(0);
    context.k_nearest = 3;
  }
};

void BM_LevelComputation(benchmark::State& state) {
  common::Rng rng(1);
  afg::LayeredDagSpec spec;
  spec.tasks = static_cast<std::size_t>(state.range(0));
  spec.width = 10;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  for (auto _ : state) {
    auto levels =
        afg::compute_levels(graph, [](const afg::TaskNode&) { return 1.0; });
    benchmark::DoNotOptimize(levels);
  }
}
BENCHMARK(BM_LevelComputation)->Arg(100)->Arg(400);

void BM_VdceScheduler(benchmark::State& state) {
  SchedBench bench;
  common::Rng rng(2);
  afg::LayeredDagSpec spec;
  spec.tasks = static_cast<std::size_t>(state.range(0));
  spec.width = 10;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  sched::VdceSiteScheduler scheduler;
  for (auto _ : state) {
    auto table = scheduler.schedule(graph, bench.context);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_VdceScheduler)->Arg(50)->Arg(200);

void BM_MinMinScheduler(benchmark::State& state) {
  SchedBench bench;
  common::Rng rng(2);
  afg::LayeredDagSpec spec;
  spec.tasks = static_cast<std::size_t>(state.range(0));
  spec.width = 10;
  afg::Afg graph = afg::make_layered_dag(spec, rng);
  sched::MinMinScheduler scheduler;
  for (auto _ : state) {
    auto table = scheduler.schedule(graph, bench.context);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_MinMinScheduler)->Arg(50);

// ---- kernels -----------------------------------------------------------------

void BM_MatrixMultiply(benchmark::State& state) {
  common::Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  tasklib::Matrix a = tasklib::Matrix::random(n, n, rng);
  tasklib::Matrix b = tasklib::Matrix::random(n, n, rng);
  for (auto _ : state) {
    auto c = tasklib::multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatrixMultiply)->Arg(64)->Arg(256);

void BM_LuDecompose(benchmark::State& state) {
  common::Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  tasklib::Matrix a = tasklib::Matrix::random_diag_dominant(n, rng);
  for (auto _ : state) {
    auto lu = tasklib::lu_decompose(a);
    benchmark::DoNotOptimize(lu);
  }
}
BENCHMARK(BM_LuDecompose)->Arg(64)->Arg(256);

void BM_Fft(benchmark::State& state) {
  common::Rng rng(5);
  tasklib::Signal s = tasklib::make_test_signal(
      static_cast<std::size_t>(state.range(0)), {0.1}, 0.1, rng);
  for (auto _ : state) {
    auto spec = tasklib::fft(s);
    benchmark::DoNotOptimize(spec);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
