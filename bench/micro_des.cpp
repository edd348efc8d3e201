// Microbenchmarks of the pipeline simulation: the paper's two
// applications at their bounded queue capacity (the tandem-with-blocking
// recursion), and the simulation `streamcalc analyze` runs on the
// quickstart and fork_join example specs (the round loop).
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
#include "streamsim/pipeline_sim.hpp"

namespace {

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
