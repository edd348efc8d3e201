// Microbenchmarks of the min-plus engine: evaluation, pointwise minimum,
// convolution (closed-form and general branch-envelope paths),
// deconvolution, and the deviation bounds, across curve sizes.
//
// Supports `--json <path>` to emit machine-readable name/value/unit rows
// (see benchmark_json.hpp); BENCH_micro_minplus.json is the checked-in perf
// baseline.
#include <benchmark/benchmark.h>

#include "benchmark_json.hpp"

#include "minplus/curve.hpp"
#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "util/rng.hpp"

namespace {

using streamcalc::minplus::Curve;
using streamcalc::minplus::Segment;

/// Concave increasing piecewise-linear curve with n segments.
Curve concave_curve(int n, std::uint64_t seed) {
  streamcalc::util::Xoshiro256 rng(seed);
  std::vector<Segment> segs;
  double x = 0.0, y = 0.0, slope = 64.0;
  for (int i = 0; i < n; ++i) {
    segs.push_back(Segment{x, y, y, slope});
    const double dx = rng.uniform(0.5, 1.5);
    y += slope * dx;
    x += dx;
    slope *= rng.uniform(0.97, 0.995);  // decreasing slopes: concave
  }
  return Curve(std::move(segs));
}

/// Convex curve with n segments (increasing slopes).
Curve convex_curve(int n, std::uint64_t seed) {
  streamcalc::util::Xoshiro256 rng(seed);
  std::vector<Segment> segs;
  double x = 0.0, y = 0.0, slope = 1.0;
  for (int i = 0; i < n; ++i) {
    segs.push_back(Segment{x, y, y, slope});
    const double dx = rng.uniform(0.5, 1.5);
    y += slope * dx;
    x += dx;
    slope *= rng.uniform(1.002, 1.012);
  }
  return Curve(std::move(segs));
}

void BM_CurveEvaluate(benchmark::State& state) {
  const Curve c = concave_curve(static_cast<int>(state.range(0)), 1);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    if (t > 50.0) t = 0.0;
    benchmark::DoNotOptimize(c.value(t));
  }
}
BENCHMARK(BM_CurveEvaluate)->Arg(4)->Arg(32)->Arg(256);

void BM_Minimum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Curve a = concave_curve(n, 2);
  const Curve b = convex_curve(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::minimum(a, b));
  }
}
BENCHMARK(BM_Minimum)->Arg(4)->Arg(16)->Arg(64);

void BM_ConvolveConvexClosedForm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Curve a = convex_curve(n, 4);
  const Curve b = convex_curve(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::convolve(a, b));
  }
}
BENCHMARK(BM_ConvolveConvexClosedForm)->Arg(4)->Arg(16)->Arg(64);

void BM_ConvolveConcave(benchmark::State& state) {
  // Both operands concave from the origin: dispatches to the minimum
  // shortcut (f (x) g == min(f, g)), an O(n + m) segment merge.
  const int n = static_cast<int>(state.range(0));
  const Curve a = concave_curve(n, 20);
  const Curve b = concave_curve(n, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::convolve(a, b));
  }
}
BENCHMARK(BM_ConvolveConcave)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ConvolveAffineConvex(benchmark::State& state) {
  // Leaky bucket (single segment) against a convex curve: the affine
  // operand clips the convex one — no branch envelope at all.
  const int n = static_cast<int>(state.range(0));
  const Curve a = Curve::affine(12.0, 40.0);
  const Curve b = convex_curve(n, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::convolve(a, b));
  }
}
BENCHMARK(BM_ConvolveAffineConvex)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_DeconvolveStaircase(benchmark::State& state) {
  // Output-bound shape for a packetized flow: staircase arrival against a
  // rate-latency service (the general deconvolution path on staircase
  // operands — the piece count of the result must stay bounded).
  const int n = static_cast<int>(state.range(0));
  const Curve a = Curve::staircase(64.0, 1.0, 0.0, n);
  const Curve b = Curve::rate_latency(128.0, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::deconvolve(a, b));
  }
}
BENCHMARK(BM_DeconvolveStaircase)->Arg(16)->Arg(64)->Arg(256);

void BM_ConvolveGeneral(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Curve a = concave_curve(n, 6).plus_step(2.0);  // mixed shape
  const Curve b = convex_curve(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::convolve(a, b));
  }
}
BENCHMARK(BM_ConvolveGeneral)
    ->Arg(2)
    ->Arg(8)
    ->Arg(24)
    ->Arg(64)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_Deconvolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Curve a = concave_curve(n, 8);
  const Curve b = streamcalc::minplus::add(convex_curve(n, 9),
                                           Curve::rate(80.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::deconvolve(a, b));
  }
}
BENCHMARK(BM_Deconvolve)
    ->Arg(2)
    ->Arg(8)
    ->Arg(24)
    ->Arg(64)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_DelayBound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Curve a = concave_curve(n, 10);
  const Curve b = streamcalc::minplus::add(convex_curve(n, 11),
                                           Curve::rate(80.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::horizontal_deviation(a, b));
  }
}
BENCHMARK(BM_DelayBound)->Arg(4)->Arg(16)->Arg(64);

void BM_BacklogBound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Curve a = concave_curve(n, 12);
  const Curve b = streamcalc::minplus::add(convex_curve(n, 13),
                                           Curve::rate(80.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::vertical_deviation(a, b));
  }
}
BENCHMARK(BM_BacklogBound)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return streamcalc::bench::run_benchmarks_main(argc, argv);
}
