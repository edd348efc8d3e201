#include "minplus/inverse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "reference.hpp"
#include "util/rng.hpp"

namespace streamcalc::minplus {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(UpperInverse, PlateauEnd) {
  // step of 7 at t=2: upper_inverse(y) for y in [0,7) is 2; for y >= 7
  // never exceeded -> inf.
  const Curve s = Curve::step(7.0, 2.0);
  EXPECT_EQ(s.upper_inverse(0.0), 2.0);
  EXPECT_EQ(s.upper_inverse(6.9), 2.0);
  EXPECT_EQ(s.upper_inverse(7.0), kInf);
}

TEST(UpperInverse, SlopedSegment) {
  const Curve r = Curve::rate(2.0);
  EXPECT_DOUBLE_EQ(r.upper_inverse(4.0), 2.0);
  EXPECT_DOUBLE_EQ(r.upper_inverse(0.0), 0.0);
}

TEST(UpperInverse, BurstJump) {
  // affine burst 3: f exceeds any y < 3 immediately after 0.
  const Curve a = Curve::affine(2.0, 3.0);
  EXPECT_EQ(a.upper_inverse(0.0), 0.0);
  EXPECT_EQ(a.upper_inverse(2.9), 0.0);
  EXPECT_DOUBLE_EQ(a.upper_inverse(5.0), 1.0);
}

TEST(InverseCurve, RateLatencyInverse) {
  // beta = rate_latency(4, 1): inverse(y) = 1 + y/4 for y > 0, 0 at 0
  // (a "latency-per-data" curve with an initial plateau jump).
  const Curve inv = lower_inverse_curve(Curve::rate_latency(4.0, 1.0));
  EXPECT_EQ(inv.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(inv.value_right(0.0), 1.0);  // latency appears as jump
  EXPECT_DOUBLE_EQ(inv.value(4.0), 2.0);
  EXPECT_DOUBLE_EQ(inv.value(8.0), 3.0);
  EXPECT_DOUBLE_EQ(inv.tail_slope(), 0.25);
}

TEST(InverseCurve, AffineBurstInverse) {
  // alpha = affine(2, 3): inverse = 0 for y <= 3, then (y-3)/2.
  const Curve inv = lower_inverse_curve(Curve::affine(2.0, 3.0));
  EXPECT_EQ(inv.value(2.0), 0.0);
  EXPECT_EQ(inv.value(3.0), 0.0);
  EXPECT_DOUBLE_EQ(inv.value(7.0), 2.0);
}

TEST(InverseCurve, BoundedCurveInverseIsInfinitePastSup) {
  // step(7, 2): inverse is 2 on (0, 7], then +inf (data never delivered).
  const Curve inv = lower_inverse_curve(Curve::step(7.0, 2.0));
  EXPECT_DOUBLE_EQ(inv.value(5.0), 2.0);
  EXPECT_DOUBLE_EQ(inv.value(7.0), 2.0);
  EXPECT_EQ(inv.value(7.5), kInf);
}

TEST(InverseCurve, DeltaInverseIsCapped) {
  // delta_T jumps to +inf at T: every positive amount is available at T.
  const Curve inv = lower_inverse_curve(Curve::delta(1.5));
  EXPECT_DOUBLE_EQ(inv.value(100.0), 1.5);
  EXPECT_DOUBLE_EQ(inv.tail_slope(), 0.0);
}

TEST(InverseCurve, PointwiseAgreementWithScalarInverse) {
  util::Xoshiro256 rng(77);
  for (int iter = 0; iter < 10; ++iter) {
    const Curve f = testing::random_curve(rng, 1 + iter % 4);
    const Curve inv = lower_inverse_curve(f);
    for (double y = 0.0; y <= f.value(f.last_breakpoint() + 2.0);
         y += 0.37) {
      EXPECT_NEAR(inv.value(y), f.lower_inverse(y), 1e-9)
          << "y=" << y << " f=" << f.describe();
    }
  }
}

TEST(InverseCurve, GaloisConnection) {
  // f(t) >= y iff t >= f^{-1}(y) (on continuity points): spot-check both
  // directions on a mixed curve.
  const Curve f = Curve::staircase(10.0, 2.0, 1.0, 3);
  const Curve inv = lower_inverse_curve(f);
  for (double y = 0.5; y <= 35.0; y += 1.3) {
    const double t = inv.value(y);
    if (!std::isfinite(t)) continue;
    EXPECT_GE(f.value_right(t) + 1e-9, y);
    if (t > 1e-9) {
      EXPECT_LT(f.value(t * (1 - 1e-12)), y + 1e-9);
    }
  }
}

TEST(InverseCurve, HorizontalDeviationEqualsVerticalOfInverses) {
  // The classic duality: h(alpha, beta) = sup_y [beta^{-1}(y) -
  // alpha^{-1}(y)] = v(beta^{-1}, alpha^{-1}).
  const Curve alpha = Curve::affine(2.0, 3.0);
  const Curve beta = Curve::rate_latency(5.0, 1.5);
  const double h = horizontal_deviation(alpha, beta);
  const double v = vertical_deviation(lower_inverse_curve(beta),
                                      lower_inverse_curve(alpha));
  EXPECT_NEAR(h, v, 1e-9);
}

TEST(InverseCurve, DualityPropertyOnRandomCurves) {
  util::Xoshiro256 rng(78);
  for (int iter = 0; iter < 12; ++iter) {
    const Curve alpha = testing::random_curve(rng, 1 + iter % 3, 4.0);
    Curve beta = testing::random_curve(rng, 1 + (iter / 3) % 3, 4.0, false);
    beta = add(beta, Curve::rate(4.5));
    const double h = horizontal_deviation(alpha, beta);
    const double v = vertical_deviation(lower_inverse_curve(beta),
                                        lower_inverse_curve(alpha));
    EXPECT_NEAR(h, v, 1e-6 * (1.0 + std::fabs(h)))
        << "alpha=" << alpha.describe() << "\nbeta=" << beta.describe();
  }
}

// --- Staircases through lower_inverse_curve --------------------------------
// Runs and rises swap under inversion; the curve must agree with the
// pointwise lower_inverse() contract at every level.

void expect_inverse_matches_pointwise(const Curve& f) {
  const Curve inv = lower_inverse_curve(f);
  std::vector<double> levels{0.0};
  for (const Segment& s : f.segments()) {
    for (double v : {s.value_at, s.value_after}) {
      if (v == kInf) continue;
      for (double y : {v - 0.25, v, v + 0.25}) {
        if (y >= 0.0) levels.push_back(y);
      }
    }
  }
  levels.push_back(f.value(f.last_breakpoint() + 3.0) + 1.0);
  for (double y : levels) {
    EXPECT_EQ(inv.value(y), f.lower_inverse(y))
        << "level y=" << y << "\nf=" << f.describe()
        << "\ninv=" << inv.describe();
  }
}

TEST(StaircaseInverse, UniformStaircaseMatchesPointwiseInverse) {
  expect_inverse_matches_pointwise(Curve::staircase(64.0, 1.0, 0.5, 6));
}

TEST(StaircaseInverse, ZeroLatencyStaircase) {
  expect_inverse_matches_pointwise(Curve::staircase(8.0, 0.25, 0.0, 9));
}

TEST(StaircaseInverse, NonUniformRisers) {
  expect_inverse_matches_pointwise(
      Curve({Segment{0.0, 0.0, 0.0, 0.0}, Segment{1.0, 3.0, 3.0, 0.0},
             Segment{1.5, 10.0, 10.0, 0.0}, Segment{4.0, 11.0, 11.0, 0.0},
             Segment{5.0, 20.0, 20.0, 4.0}}));
}

TEST(StaircaseInverse, FlatFiniteTailInvertsToInfinity) {
  // Levels above the plateau are never reached: the inverse jumps to +inf.
  const Curve f({Segment{0.0, 0.0, 0.0, 0.0}, Segment{2.0, 5.0, 5.0, 0.0}});
  const Curve inv = lower_inverse_curve(f);
  EXPECT_EQ(inv.value(5.0), 2.0);
  EXPECT_EQ(inv.value_right(5.0), kInf);
  EXPECT_EQ(inv.value(6.0), kInf);
  expect_inverse_matches_pointwise(f);
}

TEST(StaircaseInverse, JumpAtOriginCollapsesZeroLevels) {
  // Riser at x=0 (burst): levels in (0, h] are reached immediately after 0.
  const Curve f({Segment{0.0, 0.0, 4.0, 0.0}, Segment{1.0, 8.0, 8.0, 2.0}});
  expect_inverse_matches_pointwise(f);
}

}  // namespace
}  // namespace streamcalc::minplus
