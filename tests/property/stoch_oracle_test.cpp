// Differential tail-quantile oracle for the stochastic tier: for generated
// on/off-fed chains, the Chernoff delay bound P(delay > d) <= epsilon from
// the unified netcalc API must dominate the empirical (1 - epsilon) delay
// quantile of the pipeline simulation driven by the *same* on/off
// population (streamsim SimConfig::onoff_users, the simulated twin of
// stochcalc::Arrival::on_off). Scenarios come from the seeded generator,
// so every failure is replayable from its printed (seed, case) pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "netcalc/pipeline.hpp"
#include "stochcalc/envelope.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "testing/generator.hpp"
#include "testing/property.hpp"
#include "util/units.hpp"

namespace streamcalc::testing {
namespace {

using netcalc::DelayReport;
using netcalc::ModelPolicy;
using netcalc::PipelineModel;
using streamsim::SimConfig;
using streamsim::SimResult;
using util::DataRate;
using util::DataSize;
using util::Duration;
using util::Xoshiro256;

constexpr double kEpsilon = 1e-2;

stochcalc::Arrival arrival_of(const OnOffScenario& sc) {
  return stochcalc::Arrival::on_off(sc.peak, sc.mean_on, sc.mean_off,
                                    sc.base.source.packet)
      .aggregate(static_cast<double>(sc.users));
}

/// Empirical q-quantile of the post-warmup delay trace (seconds).
double tail_quantile(const SimResult& r, double warmup_s, double q) {
  std::vector<double> delays;
  delays.reserve(r.delay_trace.size());
  for (const auto& [t, d] : r.delay_trace) {
    if (t >= warmup_s) delays.push_back(d);
  }
  if (delays.empty()) return -1.0;
  std::sort(delays.begin(), delays.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(delays.size()))) -
      1;
  return delays[std::min(idx, delays.size() - 1)];
}

TEST(StochOracle, ChernoffDelayBoundDominatesTheSimulatedTailQuantile) {
  ScenarioGenConfig gen;
  gen.volume_changes = false;
  gen.aggregation = false;
  gen.max_stages = 4;
  const std::uint64_t seed = 0x0dac1e01;
  ScenarioGenerator scenarios(gen, seed);
  // The issue's acceptance floor: at least 200 generated scenarios at the
  // default budget (scaled_cases keeps STREAMCALC_FUZZ_CASES in control).
  const int n = std::max(200, scaled_cases(200));
  int checked = 0;
  for (int i = 0; i < n; ++i) {
    const OnOffScenario sc =
        dress_with_on_off(scenarios.next(), scenarios.rng());
    const PipelineModel model(sc.base.nodes, sc.base.source, ModelPolicy{});
    const stochcalc::Arrival arrival = arrival_of(sc);
    const DelayReport bound = model.delay_bound(kEpsilon, arrival);
    ASSERT_TRUE(bound.value.is_finite())
        << "case " << i << " seed " << seed << ": " << sc.base.describe();

    // Size the run in packets, not seconds: ~4000 expected deliveries
    // gives a stable 99th percentile at epsilon = 1e-2.
    const double packet_rate = sc.base.source.rate.in_bytes_per_sec() /
                               sc.base.source.packet.in_bytes();
    const double horizon_s = 4000.0 / packet_rate;
    SimConfig cfg;
    cfg.horizon = Duration::seconds(horizon_s);
    cfg.warmup = Duration::seconds(0.1 * horizon_s);
    cfg.seed = seed + static_cast<std::uint64_t>(i);
    cfg.max_trace_samples = 16384;
    cfg.onoff_users = sc.users;
    cfg.onoff_peak = sc.peak;
    cfg.onoff_mean_on = sc.mean_on;
    cfg.onoff_mean_off = sc.mean_off;
    const SimResult r = streamsim::simulate(sc.base.nodes, sc.base.source, cfg);

    const double q = tail_quantile(r, 0.1 * horizon_s, 1.0 - kEpsilon);
    if (q < 0.0) continue;  // an all-off draw; nothing to check
    ++checked;
    EXPECT_LE(q, bound.value.in_seconds())
        << "case " << i << " seed " << seed << " users " << sc.users
        << " duty "
        << sc.mean_on.in_seconds() /
               (sc.mean_on.in_seconds() + sc.mean_off.in_seconds())
        << ": " << sc.base.describe();
  }
  // The oracle only means something if the simulations actually delivered
  // packets to take quantiles of.
  EXPECT_GE(checked, (n * 9) / 10);
}

TEST(StochOracle, SureBoundStillDominatesTheSimulatedMaximum) {
  // The deterministic side of the unified API on the same runs: the
  // on/off population respects its sure envelope (peak rate + one packet
  // per user), so the worst-case bound computed from that envelope must
  // dominate the largest observed delay outright.
  ScenarioGenConfig gen;
  gen.volume_changes = false;
  gen.aggregation = false;
  gen.max_stages = 3;
  const std::uint64_t seed = 0x0dac1e02;
  ScenarioGenerator scenarios(gen, seed);
  const int n = scaled_cases(20);
  for (int i = 0; i < n; ++i) {
    const OnOffScenario sc =
        dress_with_on_off(scenarios.next(), scenarios.rng());
    const PipelineModel model(sc.base.nodes, sc.base.source, ModelPolicy{});
    // A tiny epsilon pushes the Chernoff bound to (or onto) the det clamp;
    // the result must still dominate every single observed delay.
    const DelayReport bound = model.delay_bound(1e-12, arrival_of(sc));
    ASSERT_TRUE(bound.value.is_finite()) << "case " << i;

    const double packet_rate = sc.base.source.rate.in_bytes_per_sec() /
                               sc.base.source.packet.in_bytes();
    const double horizon_s = 2000.0 / packet_rate;
    SimConfig cfg;
    cfg.horizon = Duration::seconds(horizon_s);
    cfg.warmup = Duration::seconds(0.0);
    cfg.seed = seed + static_cast<std::uint64_t>(i);
    cfg.max_trace_samples = 16384;
    cfg.onoff_users = sc.users;
    cfg.onoff_peak = sc.peak;
    cfg.onoff_mean_on = sc.mean_on;
    cfg.onoff_mean_off = sc.mean_off;
    const SimResult r = streamsim::simulate(sc.base.nodes, sc.base.source, cfg);
    if (r.packets_delivered == 0) continue;
    EXPECT_LE(r.max_delay.in_seconds(), bound.value.in_seconds())
        << "case " << i << " seed " << seed << ": " << sc.base.describe();
  }
}

}  // namespace
}  // namespace streamcalc::testing
