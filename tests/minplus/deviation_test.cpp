#include "minplus/deviation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "minplus/operations.hpp"
#include "reference.hpp"
#include "util/rng.hpp"

namespace streamcalc::minplus {
namespace {

using testing::random_curve;
using testing::ref_horizontal;
using testing::ref_vertical;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(VerticalDeviation, LeakyBucketVsRateLatencyClosedForm) {
  // x = b + Ra * T (paper, Section 3).
  const double ra = 2.0, b = 3.0, rb = 5.0, T = 1.5;
  EXPECT_NEAR(vertical_deviation(Curve::affine(ra, b),
                                 Curve::rate_latency(rb, T)),
              b + ra * T, 1e-9);
}

TEST(HorizontalDeviation, LeakyBucketVsRateLatencyClosedForm) {
  // d = T + b / Rb (paper, Section 3).
  const double ra = 2.0, b = 3.0, rb = 5.0, T = 1.5;
  EXPECT_NEAR(horizontal_deviation(Curve::affine(ra, b),
                                   Curve::rate_latency(rb, T)),
              T + b / rb, 1e-9);
}

TEST(Deviation, EqualRatesStillFinite) {
  // Ra == Rb: bounds remain finite (b + Ra*T and T + b/R).
  const double r = 4.0, b = 2.0, T = 1.0;
  EXPECT_NEAR(vertical_deviation(Curve::affine(r, b),
                                 Curve::rate_latency(r, T)),
              b + r * T, 1e-9);
  EXPECT_NEAR(horizontal_deviation(Curve::affine(r, b),
                                   Curve::rate_latency(r, T)),
              T + b / r, 1e-9);
}

TEST(Deviation, OverloadedServerDiverges) {
  // Ra > Rb: both bounds are infinite (paper, Section 3).
  const Curve a = Curve::affine(6.0, 1.0);
  const Curve s = Curve::rate_latency(5.0, 1.0);
  EXPECT_EQ(vertical_deviation(a, s), kInf);
  EXPECT_EQ(horizontal_deviation(a, s), kInf);
}

TEST(Deviation, IdenticalCurvesHaveZeroDeviation) {
  const Curve a = Curve::affine(2.0, 0.0);
  EXPECT_EQ(vertical_deviation(a, a), 0.0);
  EXPECT_EQ(horizontal_deviation(a, a), 0.0);
}

TEST(Deviation, CurveBelowServiceHasZeroDeviation) {
  EXPECT_EQ(vertical_deviation(Curve::rate(1.0), Curve::rate(2.0)), 0.0);
  EXPECT_EQ(horizontal_deviation(Curve::rate(1.0), Curve::rate(2.0)), 0.0);
}

TEST(VerticalDeviation, StepAgainstRate) {
  // step of 7 at t=2 vs rate 1: max gap right after the step: 7 - 2 = 5.
  EXPECT_NEAR(vertical_deviation(Curve::step(7.0, 2.0), Curve::rate(1.0)),
              5.0, 1e-9);
}

TEST(HorizontalDeviation, StepAgainstRate) {
  // f jumps to 7 at t=2; rate 1 reaches 7 at t=7: delay 5.
  EXPECT_NEAR(horizontal_deviation(Curve::step(7.0, 2.0), Curve::rate(1.0)),
              5.0, 1e-9);
}

TEST(HorizontalDeviation, AgainstDeltaIsPureDelayBound) {
  // Any finite arrival against delta_T: the delay bound is exactly T.
  EXPECT_NEAR(horizontal_deviation(Curve::affine(2.0, 3.0), Curve::delta(1.5)),
              1.5, 1e-9);
}

TEST(VerticalDeviation, PacketizedServiceIncreasesBacklog) {
  // [beta - l]^+ shifts the service right, growing the backlog bound by
  // exactly Ra * (l / Rb) ... spot-check monotonicity.
  const Curve a = Curve::affine(2.0, 3.0);
  const Curve beta = Curve::rate_latency(5.0, 1.0);
  const double plain = vertical_deviation(a, beta);
  const double packetized = vertical_deviation(a, beta.minus_clamped(2.0));
  EXPECT_GT(packetized, plain);
}

// --- Property tests against brute force -------------------------------------

class DeviationProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeviationProperty, VerticalMatchesBruteForce) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 6151u + 5u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4, 4.0);
  Curve g = random_curve(rng, 1 + (GetParam() / 4) % 4, 4.0);
  g = add(g, Curve::rate(4.5));  // keep the deviation finite
  const double expected = ref_vertical(f, g);
  EXPECT_NEAR(vertical_deviation(f, g), expected,
              1e-3 * (1.0 + std::fabs(expected)))
      << "f=" << f.describe() << "\ng=" << g.describe();
}

TEST_P(DeviationProperty, HorizontalMatchesBruteForce) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 1299709u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4, 4.0);
  Curve g = random_curve(rng, 1 + (GetParam() / 4) % 4, 4.0, false);
  g = add(g, Curve::rate(4.5));
  const double expected = ref_horizontal(f, g);
  EXPECT_NEAR(horizontal_deviation(f, g), expected,
              1e-3 * (1.0 + std::fabs(expected)))
      << "f=" << f.describe() << "\ng=" << g.describe();
}

TEST_P(DeviationProperty, BoundsAgreeWithConvolutionDefinition) {
  // v(f, g) equals sup_t [f(t) - (f (x) g ... no: check the standard
  // identity v(f,g) = sup of (f (/) g) at 0: (f (/) g)(0) = sup_s f(s)-g(s).
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7907u + 11u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4, 4.0);
  Curve g = random_curve(rng, 1 + (GetParam() / 4) % 4, 4.0);
  g = add(g, Curve::rate(4.5));
  const double v = vertical_deviation(f, g);
  const double d0 = deconvolve(f, g).value(0.0);
  EXPECT_NEAR(v, d0, 1e-6 * (1.0 + v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviationProperty, ::testing::Range(0, 24));

}  // namespace
}  // namespace streamcalc::minplus
