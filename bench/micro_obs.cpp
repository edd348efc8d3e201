// Microbenchmarks of the observability layer's overhead (DESIGN.md §10).
//
// Two kinds of measurements:
//
//   * Per-site costs in isolation: a dormant span (tracing off), a span
//     with the tracer recording, a counter with the runtime switch off
//     (one relaxed load + branch — the STREAMCALC_OBS=off configuration)
//     and on (relaxed atomic add), and a histogram observation.
//   * End-to-end: the general-path min-plus convolution with
//     instrumentation runtime-off vs runtime-on. The off/on delta bounds
//     what the SC_OBS_* sites cost a real curve operation; the checked-in
//     BENCH_micro_obs.json pins it (acceptance: <= 2% with the runtime
//     switched off, where each site degenerates to one atomic load).
//
// Supports `--json <path>` to emit machine-readable name/value/unit rows
// (see benchmark_json.hpp); BENCH_micro_obs.json is the checked-in
// baseline.
#include <benchmark/benchmark.h>

#include <vector>

#include "benchmark_json.hpp"

#include "minplus/curve.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace {

using streamcalc::minplus::Curve;
using streamcalc::minplus::Segment;
namespace obs = streamcalc::obs;

/// Concave increasing piecewise-linear curve with n segments (same shape
/// micro_minplus uses, so the convolve numbers are comparable).
Curve concave_curve(int n, std::uint64_t seed) {
  streamcalc::util::Xoshiro256 rng(seed);
  std::vector<Segment> segs;
  double x = 0.0, y = 0.0, slope = 64.0;
  for (int i = 0; i < n; ++i) {
    segs.push_back(Segment{x, y, y, slope});
    const double dx = rng.uniform(0.5, 1.5);
    y += slope * dx;
    x += dx;
    slope *= rng.uniform(0.97, 0.995);
  }
  return Curve(std::move(segs));
}

void BM_SpanDormant(benchmark::State& state) {
  // Tracer stopped: the out-of-line Span constructor bails after one
  // relaxed atomic load and the destructor after one member check.
  obs::set_enabled(true);
  for (auto _ : state) {
    SC_OBS_SPAN("bench", "dormant");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanDormant);

void BM_SpanTraced(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Tracer::global().start();
  for (auto _ : state) {
    SC_OBS_SPAN("bench", "traced");
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().stop();
  obs::Tracer::global().clear();
}
BENCHMARK(BM_SpanTraced);

void BM_CounterRuntimeOff(benchmark::State& state) {
  // STREAMCALC_OBS=off configuration: each site is one relaxed load and a
  // never-taken branch.
  obs::set_enabled(false);
  for (auto _ : state) {
    SC_OBS_COUNT("bench.counter.off", 1);
    benchmark::ClobberMemory();
  }
  obs::set_enabled(true);
}
BENCHMARK(BM_CounterRuntimeOff);

void BM_CounterRuntimeOn(benchmark::State& state) {
  obs::set_enabled(true);
  for (auto _ : state) {
    SC_OBS_COUNT("bench.counter.on", 1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterRuntimeOn);

void BM_HistogramObserve(benchmark::State& state) {
  obs::set_enabled(true);
  double v = 0.0;
  for (auto _ : state) {
    SC_OBS_OBSERVE("bench.histogram", v);
    v += 1.0;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramObserve);

/// General-path convolution with the instrumentation runtime switched on
/// or off (state.range(0) == 1 / 0). The off/on ratio is the end-to-end
/// overhead of every SC_OBS_* site a convolve crosses.
void BM_ConvolveObs(benchmark::State& state) {
  obs::set_enabled(state.range(0) != 0);
  const Curve a = concave_curve(64, 1);
  const Curve b = concave_curve(64, 2);
  for (auto _ : state) {
    Curve c = streamcalc::minplus::convolve(a, b);
    benchmark::DoNotOptimize(c);
  }
  obs::set_enabled(true);
}
BENCHMARK(BM_ConvolveObs)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return streamcalc::bench::run_benchmarks_main(argc, argv);
}
