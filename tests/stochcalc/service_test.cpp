// Rate-latency service minorants: construction from piecewise-linear
// curves, exact concatenation, and the N-scaling used by the aggregation
// laws.
#include "stochcalc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "minplus/curve.hpp"
#include "minplus/operations.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace streamcalc::stochcalc {
namespace {

using util::DataRate;
using util::Duration;

TEST(ServiceConstruction, RateLatencyRoundTrips) {
  const Service s = Service::rate_latency(DataRate::mib_per_sec(8),
                                          Duration::millis(3));
  EXPECT_DOUBLE_EQ(s.rate().in_mib_per_sec(), 8.0);
  EXPECT_DOUBLE_EQ(s.latency().in_millis(), 3.0);
  EXPECT_THROW(
      Service::rate_latency(DataRate::bytes_per_sec(0), Duration::millis(1)),
      util::PreconditionError);
  EXPECT_THROW(Service::rate_latency(DataRate::mib_per_sec(1),
                                     Duration::millis(-1)),
               util::PreconditionError);
}

TEST(ServiceConstruction, FromCurveTakesTheTightestMinorant) {
  // A rate-latency curve maps to itself.
  const auto beta = minplus::Curve::rate_latency(1024.0, 0.5);
  const Service s = Service::from_curve(beta);
  EXPECT_NEAR(s.rate().in_bytes_per_sec(), 1024.0, 1e-9);
  EXPECT_NEAR(s.latency().in_seconds(), 0.5, 1e-9);

  // A two-slope (slow start, fast tail) curve: the minorant uses the tail
  // slope and must sit below the curve everywhere, touching it where the
  // constraint binds.
  const auto slow = minplus::Curve::rate_latency(100.0, 0.0);
  const auto fast = minplus::Curve::rate_latency(1000.0, 1.0);
  const auto convex = minplus::maximum(slow, fast);
  const Service m = Service::from_curve(convex);
  EXPECT_NEAR(m.rate().in_bytes_per_sec(), 1000.0, 1e-9);
  for (const double t : {0.0, 0.5, 1.0, 1.5, 2.0, 5.0}) {
    const double minorant =
        m.rate().in_bytes_per_sec() *
        std::max(0.0, t - m.latency().in_seconds());
    EXPECT_LE(minorant, convex.value(t) + 1e-6) << "t " << t;
  }
}

TEST(ServiceAlgebra, ScalingMultipliesTheRateOnly) {
  const Service s = Service::rate_latency(DataRate::mib_per_sec(2),
                                          Duration::millis(4));
  const Service x = s.scaled(8.0);
  EXPECT_DOUBLE_EQ(x.rate().in_mib_per_sec(), 16.0);
  EXPECT_DOUBLE_EQ(x.latency().in_millis(), 4.0);
}

}  // namespace
}  // namespace streamcalc::stochcalc
