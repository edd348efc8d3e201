// Chernoff bounds and theta optimization: deterministic clamps, epsilon
// monotonicity, the theta domain, and the aggregation scaling law
// (DESIGN.md §15).
#include "stochcalc/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/units.hpp"

namespace streamcalc::stochcalc {
namespace {

using util::DataRate;
using util::DataSize;
using util::Duration;

Service server() {
  return Service::rate_latency(DataRate::mib_per_sec(8),
                               Duration::millis(2));
}

Arrival onoff_users(double n) {
  return Arrival::on_off(DataRate::mib_per_sec(1), Duration::millis(200),
                         Duration::millis(800), DataSize::kib(16))
      .aggregate(n);
}

TEST(ThetaDomain, CoversTheThreeRateRegimes) {
  // Peak below the service rate: every theta is valid.
  EXPECT_TRUE(std::isinf(theta_max(onoff_users(4.0), server())));
  // Mean below, peak above: a finite positive boundary where rho = R.
  const Arrival heavy = onoff_users(16.0);  // mean 4 MiB/s, peak 16 MiB/s
  const double tmax = theta_max(heavy, server());
  ASSERT_TRUE(std::isfinite(tmax));
  ASSERT_GT(tmax, 0.0);
  const double rate = server().rate().in_bytes_per_sec();
  EXPECT_LT(heavy.rho(tmax * 0.95), rate);
  EXPECT_GE(heavy.rho(tmax * 1.05), rate * (1.0 - 1e-6));
  // Mean at/above the service rate: no valid theta at all.
  EXPECT_EQ(theta_max(onoff_users(40.0), server()), 0.0);
}

TEST(ChernoffDelay, DeterministicArrivalRecoversTheSureBound) {
  // A leaky bucket against beta_{R,T} has the closed-form sure delay
  // T + b/R; the Chernoff machinery must return exactly that (det clamp),
  // independent of epsilon.
  const Arrival a =
      Arrival::leaky_bucket(DataRate::mib_per_sec(2), DataSize::kib(128));
  const double expected = 2e-3 + DataSize::kib(128).in_bytes() /
                                     DataRate::mib_per_sec(8).in_bytes_per_sec();
  for (const double eps : {1e-12, 1e-6, 1e-2}) {
    const StochasticBound d = delay_bound(a, server(), eps);
    ASSERT_TRUE(d.finite);
    EXPECT_TRUE(d.det_clamped);
    EXPECT_NEAR(d.value, expected, 1e-9);
  }
}

TEST(ChernoffDelay, EpsilonMonotoneAndNeverBelowTheDetClampLimit) {
  const Arrival a = onoff_users(16.0);
  double prev = std::numeric_limits<double>::infinity();
  for (const double eps : {1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1}) {
    const StochasticBound d = delay_bound(a, server(), eps);
    ASSERT_TRUE(d.finite) << "eps " << eps;
    EXPECT_LE(d.value, prev) << "eps " << eps;
    prev = d.value;
  }
}

TEST(ChernoffDelay, OverloadedMeanRateHasNoFiniteBound) {
  const StochasticBound d = delay_bound(onoff_users(40.0), server(), 1e-6);
  EXPECT_FALSE(d.finite);
  EXPECT_TRUE(std::isinf(d.value));
}

TEST(ChernoffBacklog, TracksDelayTimesRateStructure) {
  const Arrival a = onoff_users(16.0);
  const StochasticBound d = delay_bound(a, server(), 1e-6);
  const StochasticBound x = backlog_bound(a, server(), 1e-6);
  ASSERT_TRUE(d.finite);
  ASSERT_TRUE(x.finite);
  EXPECT_GT(x.value, 0.0);
  // backlog(theta) = R * (delay(theta) - 0) at the same theta when the
  // optima coincide; they need not, but the optimized bounds still obey
  // backlog <= R * delay within numerical slack.
  EXPECT_LE(x.value,
            server().rate().in_bytes_per_sec() * d.value * (1.0 + 1e-9));
}

TEST(AggregationScaling, ChernoffGainsGrowWithTheUserCount) {
  // One user on a server with little headroom: N users on the N-scaled
  // server see strictly increasing multiplexing gain while the worst-case
  // bound is N-invariant.
  const Arrival per_user = Arrival::on_off(
      DataRate::mib_per_sec(4), Duration::millis(200), Duration::millis(300),
      DataSize::kib(16));
  const Service base =
      Service::rate_latency(DataRate::mib_per_sec(3), Duration::millis(1));
  const auto points =
      aggregation_scaling(per_user, base, 1e-6, {1.0, 10.0, 100.0, 1000.0});
  ASSERT_EQ(points.size(), 4u);
  EXPECT_DOUBLE_EQ(points[0].gain, 1.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    ASSERT_TRUE(points[i].delay.finite) << "n " << points[i].n;
    EXPECT_GT(points[i].gain, points[i - 1].gain) << "n " << points[i].n;
    EXPECT_LE(points[i].delay.value, points[0].delay.value);
  }
}

TEST(BoundValidation, RejectsOutOfRangeEpsilon) {
  const Arrival a = onoff_users(1.0);
  EXPECT_THROW(delay_bound(a, server(), 0.0), util::PreconditionError);
  EXPECT_THROW(delay_bound(a, server(), 1.0), util::PreconditionError);
  EXPECT_THROW(backlog_bound(a, server(), -0.5), util::PreconditionError);
  EXPECT_THROW(backlog_bound(a, server(), 1.5), util::PreconditionError);
}

}  // namespace
}  // namespace streamcalc::stochcalc
