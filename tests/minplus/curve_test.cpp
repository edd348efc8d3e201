#include "minplus/curve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>

#include "minplus/operations.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace streamcalc::minplus {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Curve, DefaultIsZero) {
  const Curve c;
  EXPECT_TRUE(c.is_zero());
  EXPECT_EQ(c.value(0.0), 0.0);
  EXPECT_EQ(c.value(123.0), 0.0);
  EXPECT_EQ(c.tail_slope(), 0.0);
}

TEST(Curve, AffineEvaluation) {
  const Curve a = Curve::affine(3.0, 2.0);
  EXPECT_EQ(a.value(0.0), 0.0);          // alpha(0) = 0 by definition
  EXPECT_EQ(a.value_right(0.0), 2.0);    // instantaneous burst
  EXPECT_DOUBLE_EQ(a.value(1.0), 5.0);   // b + R t
  EXPECT_DOUBLE_EQ(a.value(2.5), 9.5);
  EXPECT_EQ(a.tail_slope(), 3.0);
  EXPECT_TRUE(a.is_finite());
}

TEST(Curve, AffineWithZeroBurstIsPureRate) {
  const Curve a = Curve::affine(4.0, 0.0);
  EXPECT_EQ(a.value_right(0.0), 0.0);
  EXPECT_DOUBLE_EQ(a.value(3.0), 12.0);
  EXPECT_TRUE(a.is_convex());
  EXPECT_TRUE(a.is_concave_from_origin());  // linear is both
}

TEST(Curve, RateLatencyEvaluation) {
  const Curve b = Curve::rate_latency(5.0, 2.0);
  EXPECT_EQ(b.value(0.0), 0.0);
  EXPECT_EQ(b.value(2.0), 0.0);
  EXPECT_DOUBLE_EQ(b.value(3.0), 5.0);
  EXPECT_DOUBLE_EQ(b.value(4.5), 12.5);
  EXPECT_TRUE(b.is_convex());
  EXPECT_FALSE(b.is_concave_from_origin());
}

TEST(Curve, RateLatencyZeroLatencyCollapses) {
  const Curve b = Curve::rate_latency(5.0, 0.0);
  EXPECT_EQ(b.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(b.value(2.0), 10.0);
}

TEST(Curve, DeltaIsZeroThenInfinite) {
  const Curve d = Curve::delta(1.5);
  EXPECT_EQ(d.value(0.0), 0.0);
  EXPECT_EQ(d.value(1.5), 0.0);       // delta_T is 0 on the closed [0, T]
  EXPECT_EQ(d.value_right(1.5), kInf);
  EXPECT_EQ(d.value(2.0), kInf);
  EXPECT_FALSE(d.is_finite());
  EXPECT_EQ(d.tail_slope(), kInf);
  EXPECT_TRUE(d.is_convex());
}

TEST(Curve, DeltaZero) {
  const Curve d = Curve::delta(0.0);
  EXPECT_EQ(d.value(0.0), 0.0);
  EXPECT_EQ(d.value(0.001), kInf);
}

TEST(Curve, StepEvaluation) {
  const Curve s = Curve::step(7.0, 2.0);
  EXPECT_EQ(s.value(1.0), 0.0);
  EXPECT_EQ(s.value(2.0), 0.0);
  EXPECT_EQ(s.value_right(2.0), 7.0);
  EXPECT_EQ(s.value(100.0), 7.0);
}

TEST(Curve, ConstantEvaluation) {
  const Curve c = Curve::constant(4.0);
  EXPECT_EQ(c.value(0.0), 0.0);
  EXPECT_EQ(c.value_right(0.0), 4.0);
  EXPECT_EQ(c.value(9.0), 4.0);
}

TEST(Curve, StaircaseMatchesPacketizedFlow) {
  // 3 packets of 10 bytes, one per 2 s, first at t = 1.
  const Curve s = Curve::staircase(10.0, 2.0, 1.0, 3);
  EXPECT_EQ(s.value(0.5), 0.0);
  EXPECT_EQ(s.value(1.0), 0.0);
  EXPECT_EQ(s.value_right(1.0), 10.0);
  EXPECT_EQ(s.value(2.9), 10.0);
  EXPECT_EQ(s.value(3.0), 10.0);
  EXPECT_EQ(s.value_right(3.0), 20.0);
  EXPECT_EQ(s.value(5.0), 20.0);
  EXPECT_EQ(s.value_right(5.0), 30.0);
  // Past the materialized steps: average-rate continuation.
  EXPECT_DOUBLE_EQ(s.value(9.0), 30.0 + 5.0 * 2.0);
  EXPECT_DOUBLE_EQ(s.tail_slope(), 5.0);
}

TEST(Curve, ValueLeftAtBreakpoints) {
  const Curve a = Curve::affine(2.0, 3.0);
  EXPECT_EQ(a.value_left(0.0), 0.0);
  EXPECT_DOUBLE_EQ(a.value_left(1.0), 5.0);
  const Curve s = Curve::step(7.0, 2.0);
  EXPECT_EQ(s.value_left(2.0), 0.0);
  EXPECT_EQ(s.value(2.0), 0.0);
  EXPECT_EQ(s.value_right(2.0), 7.0);
}

TEST(Curve, LowerInverseOnRateLatency) {
  const Curve b = Curve::rate_latency(4.0, 1.0);
  EXPECT_EQ(b.lower_inverse(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b.lower_inverse(4.0), 2.0);
  EXPECT_DOUBLE_EQ(b.lower_inverse(10.0), 3.5);
}

TEST(Curve, LowerInverseJumpReturnsJumpInstant) {
  const Curve s = Curve::step(7.0, 2.0);
  EXPECT_EQ(s.lower_inverse(3.0), 2.0);  // inf{t : f(t) >= 3} = 2 (not attained)
  EXPECT_EQ(s.lower_inverse(7.0), 2.0);
  EXPECT_EQ(s.lower_inverse(7.5), kInf);  // never reached
}

TEST(Curve, LowerInverseOnBurst) {
  const Curve a = Curve::affine(2.0, 3.0);
  EXPECT_EQ(a.lower_inverse(0.0), 0.0);
  EXPECT_EQ(a.lower_inverse(1.0), 0.0);  // inside the instantaneous burst
  EXPECT_EQ(a.lower_inverse(3.0), 0.0);
  EXPECT_DOUBLE_EQ(a.lower_inverse(7.0), 2.0);
}

TEST(Curve, ScaleValue) {
  const Curve a = Curve::affine(3.0, 2.0).scale_value(2.0);
  EXPECT_EQ(a.value_right(0.0), 4.0);
  EXPECT_DOUBLE_EQ(a.value(1.0), 10.0);
  EXPECT_TRUE(Curve::affine(3.0, 2.0).scale_value(0.0).is_zero());
}

TEST(Curve, ScaleTime) {
  // f(t/2): stretches horizontally by 2.
  const Curve b = Curve::rate_latency(4.0, 1.0).scale_time(2.0);
  EXPECT_EQ(b.value(2.0), 0.0);
  EXPECT_DOUBLE_EQ(b.value(4.0), 4.0);  // original value at t=2
}

TEST(Curve, ShiftRight) {
  const Curve a = Curve::affine(3.0, 2.0).shift_right(1.0);
  EXPECT_EQ(a.value(0.5), 0.0);
  EXPECT_EQ(a.value(1.0), 0.0);
  EXPECT_EQ(a.value_right(1.0), 2.0);
  EXPECT_DOUBLE_EQ(a.value(2.0), 5.0);
  EXPECT_EQ(Curve::affine(3.0, 2.0).shift_right(0.0),
            Curve::affine(3.0, 2.0));
}

TEST(Curve, PlusStepMatchesPacketizerAdjustment) {
  // alpha + l_max * 1_{t>0}: the packetized arrival bound.
  const Curve a = Curve::affine(3.0, 2.0).plus_step(1.5);
  EXPECT_EQ(a.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(a.value_right(0.0), 3.5);
  EXPECT_DOUBLE_EQ(a.value(1.0), 6.5);
}

TEST(Curve, MinusClampedMatchesPacketizerServiceAdjustment) {
  // [beta - l_max]^+ for beta = rate-latency(4, 1), l_max = 2:
  // zero until the original curve reaches 2 (t = 1.5), then slope 4.
  const Curve b = Curve::rate_latency(4.0, 1.0).minus_clamped(2.0);
  EXPECT_EQ(b.value(1.0), 0.0);
  EXPECT_EQ(b.value(1.5), 0.0);
  EXPECT_DOUBLE_EQ(b.value(2.0), 2.0);
  EXPECT_DOUBLE_EQ(b.value(3.0), 6.0);
}

TEST(Curve, MinusClampedWholeCurveBelow) {
  const Curve b = Curve::constant(1.0).minus_clamped(5.0);
  EXPECT_TRUE(b.is_zero());
}

TEST(Curve, MinusClampedOnBurstCurve) {
  const Curve a = Curve::affine(2.0, 3.0).minus_clamped(1.0);
  EXPECT_EQ(a.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(a.value_right(0.0), 2.0);
  EXPECT_DOUBLE_EQ(a.value(2.0), 6.0);
}

TEST(Curve, NormalizeMergesRedundantBreakpoints) {
  const Curve c({Segment{0.0, 0.0, 0.0, 2.0}, Segment{1.0, 2.0, 2.0, 2.0},
                 Segment{2.0, 4.0, 4.0, 2.0}});
  EXPECT_EQ(c.segments().size(), 1u);
  EXPECT_EQ(c, Curve::rate(2.0));
}

TEST(Curve, DescribeKnownFamilies) {
  EXPECT_EQ(Curve::zero().describe(), "zero");
  EXPECT_EQ(Curve::rate(2.0).describe(), "rate(2)");
  EXPECT_EQ(Curve::affine(3.0, 2.0).describe(), "affine(rate=3, burst=2)");
  EXPECT_EQ(Curve::rate_latency(5.0, 2.0).describe(),
            "rate_latency(rate=5, latency=2)");
  EXPECT_EQ(Curve::delta(1.0).describe(), "delta(1)");
  EXPECT_EQ(Curve::delta(0.0).describe(), "delta(0)");
}

TEST(Curve, UnitAwareConstructors) {
  using namespace util::literals;
  const Curve a = Curve::affine(100_MiBps, 4_KiB);
  EXPECT_DOUBLE_EQ(a.value_right(0.0), 4096.0);
  EXPECT_DOUBLE_EQ(a.tail_slope(), 100.0 * 1024 * 1024);
  const Curve b = Curve::rate_latency(1_GiBps, 2_ms);
  EXPECT_EQ(b.value(0.002), 0.0);
  EXPECT_NEAR(b.value(0.003), 1024.0 * 1024 * 1024 * 0.001, 1.0);
}

// --- Validation failures ---------------------------------------------------

TEST(CurveValidation, RejectsEmpty) {
  EXPECT_THROW(Curve(std::vector<Segment>{}), util::PreconditionError);
}

TEST(CurveValidation, RejectsNonZeroStart) {
  EXPECT_THROW(Curve({Segment{1.0, 0.0, 0.0, 0.0}}), util::PreconditionError);
}

TEST(CurveValidation, RejectsDecreasingBreakpoints) {
  EXPECT_THROW(Curve({Segment{0.0, 0.0, 0.0, 1.0}, Segment{0.0, 1.0, 1.0, 1.0}}),
               util::PreconditionError);
}

TEST(CurveValidation, RejectsDownwardJump) {
  EXPECT_THROW(Curve({Segment{0.0, 5.0, 1.0, 0.0}}), util::PreconditionError);
}

TEST(CurveValidation, RejectsNegativeSlope) {
  EXPECT_THROW(Curve({Segment{0.0, 0.0, 0.0, -1.0}}), util::PreconditionError);
}

TEST(CurveValidation, RejectsDecreaseAcrossBreakpoint) {
  EXPECT_THROW(Curve({Segment{0.0, 0.0, 0.0, 2.0},   // reaches 2 at x=1
                      Segment{1.0, 1.0, 1.0, 2.0}}),  // drops to 1
               util::PreconditionError);
}

TEST(CurveValidation, RejectsReturnFromInfinity) {
  EXPECT_THROW(Curve({Segment{0.0, 0.0, kInf, 0.0},
                      Segment{1.0, 5.0, 5.0, 1.0}}),
               util::PreconditionError);
}

TEST(CurveValidation, RejectsNegativeEvaluation) {
  EXPECT_THROW(Curve::zero().value(-1.0), util::PreconditionError);
}

TEST(CurveValidation, RejectsNanValues) {
  EXPECT_THROW(Curve({Segment{0.0, std::nan(""), 0.0, 0.0}}),
               util::PreconditionError);
}

TEST(CurveValidation, RejectsNegativeAffineParameters) {
  EXPECT_THROW(Curve::affine(-1.0, 0.0), util::PreconditionError);
  EXPECT_THROW(Curve::affine(1.0, -1.0), util::PreconditionError);
  EXPECT_THROW(Curve::rate_latency(1.0, -1.0), util::PreconditionError);
}

// --- Parameterized family sweep: evaluation consistency ---------------------

struct FamilyCase {
  const char* name;
  Curve curve;
};

// Without this gtest prints the parameter as a raw byte dump, which holds
// heap and string-literal addresses, so every build registers the CTest
// cases under different names.
void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.name; }

class CurveConsistency : public ::testing::TestWithParam<FamilyCase> {};

// Invariants every curve must satisfy: monotone evaluation, left limit <=
// value <= right limit, lower_inverse is a generalized inverse.
TEST_P(CurveConsistency, MonotoneAndLimitOrdered) {
  const Curve& c = GetParam().curve;
  double prev = 0.0;
  for (int i = 0; i <= 200; ++i) {
    const double t = 0.05 * i;
    const double v = c.value(t);
    EXPECT_LE(prev, v + 1e-12) << "non-monotone at t=" << t;
    EXPECT_LE(c.value_left(t), v);
    EXPECT_LE(v, c.value_right(t));
    if (std::isfinite(v)) prev = v;
  }
}

TEST_P(CurveConsistency, LowerInverseIsGeneralizedInverse) {
  const Curve& c = GetParam().curve;
  for (int i = 0; i <= 100; ++i) {
    const double y = 0.3 * i;
    const double t = c.lower_inverse(y);
    if (!std::isfinite(t)) continue;
    // f reaches y at t (through the value or an upward jump)...
    EXPECT_GE(c.value_right(t) + 1e-9, y);
    // ...and not earlier.
    if (t > 1e-9) {
      EXPECT_LT(c.value(t * (1.0 - 1e-9)), y + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CurveConsistency,
    ::testing::Values(
        FamilyCase{"zero", Curve::zero()},
        FamilyCase{"affine", Curve::affine(3.0, 2.0)},
        FamilyCase{"rate", Curve::rate(4.0)},
        FamilyCase{"rate_latency", Curve::rate_latency(5.0, 2.0)},
        FamilyCase{"constant", Curve::constant(4.0)},
        FamilyCase{"step", Curve::step(7.0, 2.0)},
        FamilyCase{"delta", Curve::delta(1.5)},
        FamilyCase{"staircase", Curve::staircase(10.0, 2.0, 1.0, 3)},
        FamilyCase{"packetized",
                   Curve::affine(3.0, 2.0).plus_step(1.5)},
        FamilyCase{"clamped",
                   Curve::rate_latency(4.0, 1.0).minus_clamped(2.0)}),
    [](const ::testing::TestParamInfo<FamilyCase>& param_info) {
      return param_info.param.name;
    });

// --- Cached shape metadata (DESIGN.md §11) -------------------------------

TEST(CurveShape, AffineIsBothConvexAndConcave) {
  const Curve a = Curve::rate(4.0);
  EXPECT_TRUE(a.shape().convex);
  EXPECT_TRUE(a.shape().concave_from_origin);
}

TEST(CurveShape, RateLatencyIsConvexAndDegenerateStaircase) {
  // The latency plateau is a single flat pre-tail piece, so rate-latency
  // is also the degenerate one-step staircase; its slopes only rise, so it
  // classifies as convex.
  const Curve b = Curve::rate_latency(5.0, 2.0);
  EXPECT_TRUE(b.shape().convex);
  EXPECT_FALSE(b.shape().concave_from_origin);
  const Curve c = maximum(Curve::rate(1.0), Curve::rate_latency(5.0, 2.0));
  EXPECT_TRUE(c.shape().convex);
}

TEST(CurveShape, TokenBucketMinIsConcave) {
  const Curve a = minimum(Curve::affine(2.0, 9.0), Curve::affine(6.0, 1.0));
  EXPECT_TRUE(a.shape().concave_from_origin);
  EXPECT_FALSE(a.shape().convex);
}

TEST(CurveShape, GeneralMixedShapeClassifiesAsGeneral) {
  // Concave body with a step: neither convex nor concave-from-origin.
  const Curve a =
      minimum(Curve::affine(2.0, 9.0), Curve::affine(6.0, 1.0)).plus_step(2.0);
  const Curve m = maximum(a, Curve::rate_latency(8.0, 1.0));
  EXPECT_FALSE(m.shape().convex);
  EXPECT_FALSE(m.shape().concave_from_origin);
}

}  // namespace
}  // namespace streamcalc::minplus
