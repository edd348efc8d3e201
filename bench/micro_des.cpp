// Microbenchmarks of the discrete-event kernel and pipeline simulator:
// raw event throughput, store handoff cost, end-to-end simulated events
// per second for the paper's two applications, and the simulation that
// `streamcalc analyze` runs on the quickstart and fork_join example specs.
// `--json <path>` writes the rows (BENCH_micro_des.json).
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>

#include "apps/bitw.hpp"
#include "apps/blast.hpp"
#include "benchmark_json.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "des/simulation.hpp"
#include "des/store.hpp"
#include "streamsim/pipeline_sim.hpp"

namespace {

using streamcalc::des::Process;
using streamcalc::des::Simulation;
using streamcalc::des::Store;

Process ticker(Simulation& sim, int count) {
  for (int i = 0; i < count; ++i) co_await sim.timeout(1.0);
}

void BM_TimeoutEvents(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    sim.spawn(ticker(sim, n));
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimeoutEvents)->Arg(1000)->Arg(10000);

Process producer(Simulation& sim, Store<int>& st, int count) {
  for (int i = 0; i < count; ++i) {
    co_await st.put(i);
    co_await sim.timeout(0.5);
  }
}

Process consumer(Store<int>& st, int count) {
  for (int i = 0; i < count; ++i) (void)co_await st.get();
}

void BM_StoreHandoff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    Store<int> st(sim, 4);
    sim.spawn(producer(sim, st, n));
    sim.spawn(consumer(st, n));
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StoreHandoff)->Arg(1000)->Arg(10000);

void BM_BlastPipelineSim(benchmark::State& state) {
  namespace blast = streamcalc::apps::blast;
  auto cfg = blast::sim_config();
  cfg.horizon = streamcalc::util::Duration::millis(100);
  cfg.warmup = streamcalc::util::Duration::millis(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::streamsim::simulate(
        blast::nodes(), blast::streaming_source(), cfg));
  }
}
BENCHMARK(BM_BlastPipelineSim)->Unit(benchmark::kMillisecond);

void BM_BitwPipelineSim(benchmark::State& state) {
  namespace bitw = streamcalc::apps::bitw;
  auto cfg = bitw::sim_config();
  cfg.horizon = streamcalc::util::Duration::millis(1);
  cfg.warmup = streamcalc::util::Duration::micros(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::streamsim::simulate(
        bitw::nodes(), bitw::throttled_source(), cfg));
  }
}
BENCHMARK(BM_BitwPipelineSim)->Unit(benchmark::kMillisecond);

streamcalc::cli::Spec load_spec(const char* name) {
  std::ifstream in(std::string(SC_SPEC_DIR) + "/" + name + ".scspec");
  std::stringstream text;
  text << in.rdbuf();
  return streamcalc::cli::parse_spec(text.str());
}

void BM_QuickstartSim(benchmark::State& state) {
  const streamcalc::cli::Spec spec = load_spec("quickstart");
  const streamcalc::streamsim::SimConfig cfg =
      streamcalc::cli::simulation_config(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        streamcalc::streamsim::simulate(spec.nodes, spec.source, cfg));
  }
}
BENCHMARK(BM_QuickstartSim)->Unit(benchmark::kMicrosecond);

void BM_ForkJoinSim(benchmark::State& state) {
  const streamcalc::cli::Spec spec = load_spec("fork_join");
  const streamcalc::netcalc::DagSpec dag = spec.dag();
  const streamcalc::streamsim::SimConfig cfg =
      streamcalc::cli::simulation_config(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        streamcalc::streamsim::simulate_dag(dag, spec.source, cfg));
  }
}
BENCHMARK(BM_ForkJoinSim)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return streamcalc::bench::run_benchmarks_main(argc, argv);
}
