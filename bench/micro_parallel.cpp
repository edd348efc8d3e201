// Microbenchmarks of the execution layer: thread-pool dispatch overhead
// and general convolution and deconvolution on the branch-envelope path.
//
// The min-plus and max-plus curve algebra runs serially. A thread fan-out
// of the branch envelope only pays on synthetic operands like these
// (64-512 pieces); the BLAST and BITW curves are a handful of pieces, so
// no real analysis builds an envelope that large. The pool itself serves
// serve's request batches and the replication runner, which
// BM_PoolDispatch measures.
//
// Supports `--json <path>` (see benchmark_json.hpp); the checked-in
// BENCH_micro_parallel.json is the perf baseline.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "benchmark_json.hpp"
#include "minplus/curve.hpp"
#include "minplus/operations.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using streamcalc::minplus::Curve;
using streamcalc::minplus::Segment;
using streamcalc::util::ThreadPool;

/// Concave increasing piecewise-linear curve with n segments (same
/// construction as micro_minplus.cpp).
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

/// Mixed-shape operand pair that forces the general branch-envelope path.
std::pair<Curve, Curve> general_pair(int n) {
  return {concave_curve(n, 6).plus_step(2.0), convex_curve(n, 7)};
}

/// Pool dispatch overhead: fork/join over `chunks` near-empty chunks.
void BM_PoolDispatch(benchmark::State& state) {
  ThreadPool& pool = ThreadPool::global();
  const auto chunks = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(chunks, 0.0);
  for (auto _ : state) {
    pool.parallel_for(0, chunks, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        out[i] = static_cast<double>(i) * 0.5;
      }
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PoolDispatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

/// The same loop run inline — the zero-overhead baseline for
/// BM_PoolDispatch.
void BM_InlineDispatch(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(chunks, 0.0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < chunks; ++i) {
      out[i] = static_cast<double>(i) * 0.5;
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_InlineDispatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_ConvolveGeneralSerial(benchmark::State& state) {
  const auto [a, b] = general_pair(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::convolve(a, b));
  }
}
BENCHMARK(BM_ConvolveGeneralSerial)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_DeconvolveSerial(benchmark::State& state) {
  const Curve a = concave_curve(static_cast<int>(state.range(0)), 8);
  const Curve b = streamcalc::minplus::add(
      convex_curve(static_cast<int>(state.range(0)), 9), Curve::rate(80.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(streamcalc::minplus::deconvolve(a, b));
  }
}
BENCHMARK(BM_DeconvolveSerial)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return streamcalc::bench::run_benchmarks_main(argc, argv);
}
