// MGF arrival envelopes: per-model rho/sigma values, the theta -> 0 and
// theta -> infinity limits, and the additivity laws the whole stochastic
// tier is built on (DESIGN.md §15).
#include "stochcalc/envelope.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace streamcalc::stochcalc {
namespace {

using util::DataRate;
using util::DataSize;
using util::Duration;

TEST(LeakyBucketEnvelope, IsThetaIndependentAndDeterministic) {
  const Arrival a = Arrival::leaky_bucket(DataRate::mib_per_sec(10),
                                          DataSize::kib(256));
  EXPECT_TRUE(a.deterministic());
  for (const double theta : {1e-9, 1e-6, 1e-3, 1.0}) {
    EXPECT_DOUBLE_EQ(a.rho(theta), DataRate::mib_per_sec(10).in_bytes_per_sec());
    EXPECT_DOUBLE_EQ(a.sigma(theta), DataSize::kib(256).in_bytes());
  }
  EXPECT_DOUBLE_EQ(a.mean_rate().in_bytes_per_sec(),
                   a.peak_rate().in_bytes_per_sec());
  double burst = 0.0;
  for (const Component& c : a.components()) burst += c.count * c.burst;
  EXPECT_DOUBLE_EQ(burst, DataSize::kib(256).in_bytes());
}

TEST(OnOffEnvelope, EffectiveBandwidthInterpolatesMeanToPeak) {
  // 25% duty cycle at 4 MiB/s peak: mean rate 1 MiB/s.
  const Arrival a =
      Arrival::on_off(DataRate::mib_per_sec(4), Duration::millis(200),
                      Duration::millis(600), DataSize::kib(16));
  EXPECT_FALSE(a.deterministic());
  const double mean = a.mean_rate().in_bytes_per_sec();
  const double peak = a.peak_rate().in_bytes_per_sec();
  EXPECT_NEAR(mean, DataRate::mib_per_sec(1).in_bytes_per_sec(), 1.0);
  EXPECT_DOUBLE_EQ(peak, DataRate::mib_per_sec(4).in_bytes_per_sec());

  // rho is nondecreasing and stays inside [mean, peak].
  double prev = 0.0;
  for (const double theta : {1e-10, 1e-8, 1e-6, 1e-4, 1e-2}) {
    const double r = a.rho(theta);
    EXPECT_GE(r, prev) << "theta " << theta;
    EXPECT_GE(r, mean * (1.0 - 1e-9)) << "theta " << theta;
    EXPECT_LE(r, peak * (1.0 + 1e-9)) << "theta " << theta;
    prev = r;
  }
  // Small theta approaches the mean; large theta approaches the peak.
  EXPECT_NEAR(a.rho(1e-12), mean, mean * 1e-3);
  EXPECT_NEAR(a.rho(10.0), peak, peak * 1e-3);
}

TEST(PoissonEnvelope, MatchesTheExactCompoundPoissonMgf) {
  // rho(theta) = lambda (e^{theta p} - 1) / theta, sigma = packet bound.
  const double lambda = 1000.0;
  const double p = DataSize::kib(16).in_bytes();
  const Arrival a = Arrival::poisson_packets(lambda, DataSize::kib(16));
  EXPECT_FALSE(a.deterministic());
  for (const double theta : {1e-9, 1e-7, 1e-5}) {
    EXPECT_NEAR(a.rho(theta), lambda * std::expm1(theta * p) / theta,
                1e-6 * a.rho(theta))
        << "theta " << theta;
  }
  EXPECT_NEAR(a.mean_rate().in_bytes_per_sec(), lambda * p,
              1e-6 * lambda * p);
  EXPECT_FALSE(a.peak_rate().is_finite());
}

TEST(ArrivalAlgebra, SigmaRhoAddForIndependentSums) {
  const Arrival onoff =
      Arrival::on_off(DataRate::mib_per_sec(4), Duration::millis(100),
                      Duration::millis(400), DataSize::kib(16));
  const Arrival leaky =
      Arrival::leaky_bucket(DataRate::mib_per_sec(2), DataSize::kib(64));
  const Arrival sum = onoff + leaky;
  for (const double theta : {1e-8, 1e-6, 1e-4}) {
    EXPECT_NEAR(sum.rho(theta), onoff.rho(theta) + leaky.rho(theta),
                1e-9 * sum.rho(theta));
    EXPECT_NEAR(sum.sigma(theta), onoff.sigma(theta) + leaky.sigma(theta),
                1e-9 * (sum.sigma(theta) + 1.0));
  }
}

TEST(ArrivalAlgebra, AggregationScalesSigmaRhoLinearly) {
  const Arrival one =
      Arrival::on_off(DataRate::mib_per_sec(1), Duration::millis(50),
                      Duration::millis(150), DataSize::kib(4));
  const Arrival fifty = one.aggregate(50.0);
  for (const double theta : {1e-8, 1e-6, 1e-4}) {
    EXPECT_NEAR(fifty.rho(theta), 50.0 * one.rho(theta),
                1e-9 * fifty.rho(theta));
    EXPECT_NEAR(fifty.sigma(theta), 50.0 * one.sigma(theta),
                1e-9 * (fifty.sigma(theta) + 1.0));
  }
  EXPECT_NEAR(fifty.mean_rate().in_bytes_per_sec(),
              50.0 * one.mean_rate().in_bytes_per_sec(), 1.0);
}

TEST(ArrivalValidation, RejectsNonsenseParameters) {
  EXPECT_THROW(Arrival::on_off(DataRate::bytes_per_sec(0),
                               Duration::millis(1), Duration::millis(1),
                               DataSize::bytes(0)),
               util::PreconditionError);
  EXPECT_THROW(Arrival::on_off(DataRate::mib_per_sec(1),
                               Duration::seconds(0), Duration::millis(1),
                               DataSize::bytes(0)),
               util::PreconditionError);
  EXPECT_THROW(Arrival::poisson_packets(0.0, DataSize::kib(1)),
               util::PreconditionError);
  const Arrival a =
      Arrival::leaky_bucket(DataRate::mib_per_sec(1), DataSize::kib(1));
  EXPECT_THROW(a.aggregate(0.5), util::PreconditionError);
  EXPECT_THROW(a.rho(0.0), util::PreconditionError);
  EXPECT_THROW(a.sigma(-1.0), util::PreconditionError);
}

}  // namespace
}  // namespace streamcalc::stochcalc
