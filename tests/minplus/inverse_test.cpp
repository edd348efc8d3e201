#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "minplus/curve.hpp"
#include "minplus/deviation.hpp"

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

// The lower pseudo-inverse f^{-1}(y) = inf{ t >= 0 : f(t) >= y } of each
// curve shape, pointwise: jumps of f become plateaus of f^{-1} and
// plateaus become jumps.

TEST(InverseCurve, RateLatencyInverse) {
  // beta = rate_latency(4, 1): inverse(y) = 1 + y/4 for y > 0, 0 at 0
  // (the latency appears as a jump just after 0).
  const Curve f = Curve::rate_latency(4.0, 1.0);
  EXPECT_EQ(f.lower_inverse(0.0), 0.0);
  EXPECT_NEAR(f.lower_inverse(1e-12), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(f.lower_inverse(4.0), 2.0);
  EXPECT_DOUBLE_EQ(f.lower_inverse(8.0), 3.0);
  EXPECT_DOUBLE_EQ(f.lower_inverse(12.0) - f.lower_inverse(8.0), 1.0);
}

TEST(InverseCurve, AffineBurstInverse) {
  // alpha = affine(2, 3): inverse = 0 for y <= 3, then (y-3)/2.
  const Curve f = Curve::affine(2.0, 3.0);
  EXPECT_EQ(f.lower_inverse(2.0), 0.0);
  EXPECT_EQ(f.lower_inverse(3.0), 0.0);
  EXPECT_DOUBLE_EQ(f.lower_inverse(7.0), 2.0);
}

TEST(InverseCurve, BoundedCurveInverseIsInfinitePastSup) {
  // step(7, 2): inverse is 2 on (0, 7], then +inf (data never delivered).
  const Curve f = Curve::step(7.0, 2.0);
  EXPECT_DOUBLE_EQ(f.lower_inverse(5.0), 2.0);
  EXPECT_DOUBLE_EQ(f.lower_inverse(7.0), 2.0);
  EXPECT_EQ(f.lower_inverse(7.5), kInf);
}

TEST(InverseCurve, DeltaInverseIsCapped) {
  // delta_T jumps to +inf at T: every positive amount is available at T.
  const Curve f = Curve::delta(1.5);
  EXPECT_DOUBLE_EQ(f.lower_inverse(100.0), 1.5);
  EXPECT_DOUBLE_EQ(f.lower_inverse(1e12), 1.5);
}

TEST(InverseCurve, GaloisConnection) {
  // f(t) >= y iff t >= f^{-1}(y) (on continuity points): spot-check both
  // directions on a mixed curve.
  const Curve f = Curve::staircase(10.0, 2.0, 1.0, 3);
  for (double y = 0.5; y <= 35.0; y += 1.3) {
    const double t = f.lower_inverse(y);
    if (!std::isfinite(t)) continue;
    EXPECT_GE(f.value_right(t) + 1e-9, y);
    if (t > 1e-9) {
      EXPECT_LT(f.value(t * (1 - 1e-12)), y + 1e-9);
    }
  }
}

TEST(InverseCurve, HorizontalDeviationEqualsVerticalOfInverses) {
  // The classic duality: h(alpha, beta) = sup_y [beta^{-1}(y) -
  // alpha^{-1}(y)], attained here at alpha's burst level y = 3.
  const Curve alpha = Curve::affine(2.0, 3.0);
  const Curve beta = Curve::rate_latency(5.0, 1.5);
  double v = 0.0;
  for (double y = 0.0; y <= 20.0; y += 0.5) {
    v = std::max(v, beta.lower_inverse(y) - alpha.lower_inverse(y));
  }
  EXPECT_NEAR(horizontal_deviation(alpha, beta), v, 1e-9);
}

// --- Staircases ------------------------------------------------------------
// Runs and rises swap under inversion; at every level, on a riser, just
// above and below one, and past the top, lower_inverse() must be the
// generalized inverse: f reaches y at t and not earlier, or never.

void expect_inverse_is_generalized_inverse(const Curve& f) {
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
    const double t = f.lower_inverse(y);
    if (!std::isfinite(t)) {
      EXPECT_EQ(f.tail_slope(), 0.0) << "level y=" << y;
      EXPECT_LT(f.value(f.last_breakpoint() + 1.0), y)
          << "level y=" << y << "\nf=" << f.describe();
      continue;
    }
    EXPECT_GE(f.value_right(t), y)
        << "level y=" << y << "\nf=" << f.describe();
    if (t > 0.0) {
      EXPECT_LT(f.value(t * (1.0 - 1e-12)), y)
          << "level y=" << y << "\nf=" << f.describe();
    }
  }
}

TEST(StaircaseInverse, UniformStaircaseMatchesPointwiseInverse) {
  expect_inverse_is_generalized_inverse(Curve::staircase(64.0, 1.0, 0.5, 6));
}

TEST(StaircaseInverse, ZeroLatencyStaircase) {
  expect_inverse_is_generalized_inverse(Curve::staircase(8.0, 0.25, 0.0, 9));
}

TEST(StaircaseInverse, NonUniformRisers) {
  expect_inverse_is_generalized_inverse(
      Curve({Segment{0.0, 0.0, 0.0, 0.0}, Segment{1.0, 3.0, 3.0, 0.0},
             Segment{1.5, 10.0, 10.0, 0.0}, Segment{4.0, 11.0, 11.0, 0.0},
             Segment{5.0, 20.0, 20.0, 4.0}}));
}

TEST(StaircaseInverse, FlatFiniteTailInvertsToInfinity) {
  // Levels above the plateau are never reached: the inverse jumps to +inf.
  const Curve f({Segment{0.0, 0.0, 0.0, 0.0}, Segment{2.0, 5.0, 5.0, 0.0}});
  EXPECT_EQ(f.lower_inverse(5.0), 2.0);
  EXPECT_EQ(f.lower_inverse(std::nextafter(5.0, kInf)), kInf);
  EXPECT_EQ(f.lower_inverse(6.0), kInf);
  expect_inverse_is_generalized_inverse(f);
}

TEST(StaircaseInverse, JumpAtOriginCollapsesZeroLevels) {
  // Riser at x=0 (burst): levels in (0, h] are reached immediately after 0.
  const Curve f({Segment{0.0, 0.0, 4.0, 0.0}, Segment{1.0, 8.0, 8.0, 2.0}});
  expect_inverse_is_generalized_inverse(f);
}

}  // namespace
}  // namespace streamcalc::minplus
