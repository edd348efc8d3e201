#include "minplus/operations.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "minplus/deviation.hpp"
#include "reference.hpp"
#include "testing/exact_minplus.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::minplus {
namespace {

using testing::random_curve;
using testing::ref_convolve;
using testing::ref_deconvolve;
using streamcalc::testing::exact_convolve_at;
using streamcalc::testing::exact_deconvolve_at;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Pointwise operators ----------------------------------------------------

TEST(PointwiseOps, AddAffine) {
  const Curve s = add(Curve::affine(3.0, 2.0), Curve::affine(1.0, 4.0));
  EXPECT_EQ(s.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.value_right(0.0), 6.0);
  EXPECT_DOUBLE_EQ(s.value(2.0), 2.0 + 3.0 * 2 + 4.0 + 1.0 * 2);
}

TEST(PointwiseOps, MinimumOfTwoAffineIsConcaveKink) {
  // min(2 + 3t, 6 + t): crossing at t = 2.
  const Curve m = minimum(Curve::affine(3.0, 2.0), Curve::affine(1.0, 6.0));
  EXPECT_DOUBLE_EQ(m.value(1.0), 5.0);
  EXPECT_DOUBLE_EQ(m.value(2.0), 8.0);
  EXPECT_DOUBLE_EQ(m.value(3.0), 9.0);
  EXPECT_TRUE(m.is_concave_from_origin());
}

TEST(PointwiseOps, MinimumCrossingBeyondLastBreakpoint) {
  // rate(1) vs constant 4: they cross at t = 4, past both last breakpoints.
  const Curve m = minimum(Curve::rate(1.0), Curve::constant(4.0));
  EXPECT_DOUBLE_EQ(m.value(2.0), 2.0);
  EXPECT_DOUBLE_EQ(m.value(4.0), 4.0);
  EXPECT_DOUBLE_EQ(m.value(10.0), 4.0);
  EXPECT_DOUBLE_EQ(m.tail_slope(), 0.0);
}

TEST(PointwiseOps, MaximumCrossing) {
  const Curve m = maximum(Curve::rate(1.0), Curve::constant(4.0));
  EXPECT_DOUBLE_EQ(m.value(2.0), 4.0);
  EXPECT_DOUBLE_EQ(m.value(10.0), 10.0);
}

// A steep line that crosses a step within a few picoseconds of a shared
// breakpoint: the crossing must still hand the interval to the other line
// at its own value, not keep the old winner's value with the new slope.
// min(c, rate_latency) climbs from 0 to c within 1.8 ps of the latency.
// The crossing abscissa rounds to ulp(0.0518) ~ 7e-18 s, which the 3.28e9
// slope turns into ~2e-8 of value: far below the 0.00586 step.
TEST(PointwiseOps, MinimumCrossingJustPastABreakpointKeepsTheStep) {
  const Curve m =
      minimum(Curve::constant(0.00586), Curve::rate_latency(3.28e9, 0.0518));
  EXPECT_EQ(m.value(0.03), 0.0);
  EXPECT_EQ(m.value(0.0518), 0.0);
  EXPECT_NEAR(m.value(0.1), 0.00586, 5e-8);
  EXPECT_NEAR(m.value(1000.0), 0.00586, 5e-8);
}

TEST(PointwiseOps, MaximumCrossingJustPastABreakpointDoesNotOvershoot) {
  const Curve m =
      maximum(Curve::constant(0.00586), Curve::rate_latency(3.28e9, 0.0518));
  EXPECT_DOUBLE_EQ(m.value(0.03), 0.00586);
  EXPECT_DOUBLE_EQ(m.value(0.0518), 0.00586);
  // 3.28e9 * (0.1 - 0.0518), well inside the 0.00586 overshoot.
  EXPECT_NEAR(m.value(0.1), 3.28e9 * (0.1 - 0.0518), 1e-4);
}

// The residual [f - g]^+ of the same pair: f - g crosses zero 1.8 ps past
// the latency, a crossing at the scale of rounding noise. The residual
// must stay 0 up to the crossing and never lie above max(0, f - g).
TEST(PointwiseOps, SubtractClampedCrossingJustPastABreakpointStaysBelow) {
  const Curve f = Curve::rate_latency(3.28e9, 0.0518);
  const Curve g = Curve::constant(0.00586);
  const Curve r = subtract_clamped(f, g);
  EXPECT_EQ(r.value(0.0518), 0.0);
  for (const double t : {0.0518 + 1e-12, 0.0518 + 1e-6, 0.06, 0.1, 0.5, 2.0,
                         1000.0}) {
    const double truth = 3.28e9 * (t - 0.0518) - 0.00586;
    EXPECT_LE(r.value(t), std::max(0.0, truth) + 1e-13 * (1.0 + truth))
        << "t = " << t;
    EXPECT_GE(r.value(t), truth - 1e-6 * (1.0 + truth)) << "t = " << t;
  }
}

TEST(PointwiseOps, MinimumWithDelta) {
  // min(delta_1, affine) is affine-capped: 0 until... delta is 0 on [0,1],
  // so min equals 0 there? No: min(0, alpha(t)) = 0 on [0,1], alpha after.
  const Curve m = minimum(Curve::delta(1.0), Curve::affine(2.0, 1.0));
  EXPECT_EQ(m.value(0.5), 0.0);
  EXPECT_EQ(m.value(1.0), 0.0);
  EXPECT_DOUBLE_EQ(m.value(2.0), 5.0);
}

TEST(PointwiseOps, AddWithInfinity) {
  const Curve s = add(Curve::delta(1.0), Curve::rate(2.0));
  EXPECT_DOUBLE_EQ(s.value(0.5), 1.0);
  EXPECT_EQ(s.value(1.5), kInf);
}

// --- Convolution closed forms ----------------------------------------------

TEST(Convolve, DeltaZeroIsIdentity) {
  for (const Curve& f :
       {Curve::affine(3.0, 2.0), Curve::rate_latency(5.0, 2.0),
        Curve::staircase(10.0, 2.0, 1.0, 3)}) {
    EXPECT_EQ(convolve(f, Curve::delta(0.0)), f) << f.describe();
    EXPECT_EQ(convolve(Curve::delta(0.0), f), f) << f.describe();
  }
}

TEST(Convolve, DeltaShifts) {
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve shifted = convolve(f, Curve::delta(1.5));
  EXPECT_EQ(shifted, f.shift_right(1.5));
  EXPECT_EQ(shifted.value(1.0), 0.0);
  EXPECT_DOUBLE_EQ(shifted.value(2.5), 5.0);
}

TEST(Convolve, TwoRateLatenciesConcatenate) {
  // Classic concatenation: rates min, latencies add.
  const Curve c =
      convolve(Curve::rate_latency(5.0, 1.0), Curve::rate_latency(3.0, 2.0));
  EXPECT_EQ(c, Curve::rate_latency(3.0, 3.0));
}

TEST(Convolve, ConvexSlopeSortProperty) {
  // Convolution of convex curves concatenates segments by increasing slope.
  const Curve f({Segment{0.0, 0.0, 0.0, 1.0}, Segment{2.0, 2.0, 2.0, 4.0}});
  const Curve g({Segment{0.0, 0.0, 0.0, 2.0}, Segment{1.0, 2.0, 2.0, 6.0}});
  const Curve c = convolve(f, g);
  // Slope order: 1 (len 2), 2 (len 1), 4 (tail wins over 6).
  EXPECT_DOUBLE_EQ(c.value(1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.value(2.0), 2.0);
  EXPECT_DOUBLE_EQ(c.value(3.0), 4.0);
  EXPECT_DOUBLE_EQ(c.value(4.0), 8.0);
  EXPECT_DOUBLE_EQ(c.tail_slope(), 4.0);
}

TEST(Convolve, ConcaveFromOriginIsMinimum) {
  const Curve a = Curve::affine(3.0, 2.0);
  const Curve b = Curve::affine(1.0, 6.0);
  EXPECT_EQ(convolve(a, b), minimum(a, b));
}

TEST(Convolve, AffineWithRateLatencyClosedForm) {
  // (alpha (x) beta)(t) = 0 for t <= T, then min(Rb*(t-T), b + Ra*(t-T)).
  const double ra = 2.0, b = 3.0, rb = 5.0, T = 1.0;
  const Curve c = convolve(Curve::affine(ra, b), Curve::rate_latency(rb, T));
  EXPECT_EQ(c.value(0.5), 0.0);
  EXPECT_EQ(c.value(1.0), 0.0);
  for (double t : {1.2, 1.5, 1.6, 2.0, 3.0, 10.0}) {
    const double expected = std::min(rb * (t - T), b + ra * (t - T));
    EXPECT_NEAR(c.value(t), expected, 1e-8) << "t=" << t;
  }
  EXPECT_NEAR(c.tail_slope(), ra, 1e-12);
}

TEST(Convolve, WithZeroCurveCollapses) {
  const Curve c = convolve(Curve::affine(3.0, 2.0), Curve::zero());
  EXPECT_TRUE(c.is_zero());
}

TEST(Convolve, StaircaseWithRateLatency) {
  // Validated pointwise against brute force.
  const Curve f = Curve::staircase(10.0, 2.0, 1.0, 4);
  const Curve g = Curve::rate_latency(6.0, 0.5);
  const Curve c = convolve(f, g);
  for (double t = 0.0; t <= 12.0; t += 0.37) {
    EXPECT_NEAR(c.value(t), ref_convolve(f, g, t), 1e-4) << "t=" << t;
  }
}

TEST(Convolve, AtMatchesFullCurve) {
  const Curve f = Curve::affine(2.0, 3.0);
  const Curve g = Curve::rate_latency(5.0, 1.0);
  const Curve c = convolve(f, g);
  for (double t = 0.0; t <= 8.0; t += 0.31) {
    EXPECT_NEAR(exact_convolve_at(f, g, t).value.approx(), c.value(t), 1e-9);
  }
}

// --- Deconvolution -----------------------------------------------------------

TEST(Deconvolve, AffineOverRateLatencyClosedForm) {
  // alpha (/) beta = affine with burst b + Ra*T (the output-flow bound).
  const double ra = 2.0, b = 3.0, rb = 5.0, T = 1.0;
  const Curve d = deconvolve(Curve::affine(ra, b), Curve::rate_latency(rb, T));
  for (double t : {0.0, 0.5, 1.0, 2.0, 7.0}) {
    EXPECT_NEAR(d.value(t), b + ra * (t + T), 1e-9) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(d.tail_slope(), ra);
}

TEST(Deconvolve, UnboundedWhenArrivalRateExceedsServiceRate) {
  const Curve d = deconvolve(Curve::affine(6.0, 1.0), Curve::rate_latency(5.0, 1.0));
  EXPECT_FALSE(d.is_finite());
  EXPECT_EQ(d.value(0.0), kInf);
  EXPECT_TRUE(exact_deconvolve_at(Curve::affine(6.0, 1.0),
                                  Curve::rate_latency(5.0, 1.0), 2.0)
                  .value.is_inf());
}

TEST(Deconvolve, ByDeltaIsLeftShift) {
  // f (/) delta_T = f(t + T).
  const Curve f = Curve::affine(2.0, 3.0);
  const Curve d = deconvolve(f, Curve::delta(1.5));
  for (double t : {0.0, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(d.value(t), f.value(t + 1.5), 1e-9) << "t=" << t;
  }
}

TEST(Deconvolve, SelfDeconvolutionOfRateIsItself) {
  // sup_s [3(t+s) - 3s] = 3t: a constant-rate flow through a constant-rate
  // server does not gain burstiness.
  const Curve d = deconvolve(Curve::rate(3.0), Curve::rate(3.0));
  EXPECT_EQ(d, Curve::rate(3.0));
}

TEST(Deconvolve, AtMatchesFullCurve) {
  const Curve f = Curve::affine(2.0, 3.0);
  const Curve g = Curve::rate_latency(5.0, 1.0);
  const Curve d = deconvolve(f, g);
  for (double t = 0.0; t <= 8.0; t += 0.31) {
    EXPECT_NEAR(exact_deconvolve_at(f, g, t).value.approx(), d.value(t),
                1e-9);
  }
}


// --- Residual service: [f - g]^+ ---------------------------------------------

TEST(SubtractClamped, RateLatencyMinusLeakyBucketClosedForm) {
  // [beta - alpha]^+ for beta = rate_latency(5, 1), alpha = affine(2, 3):
  // residual rate 3, crossing where 5(t-1) = 3 + 2t => t = 8/3.
  const Curve r = subtract_clamped(Curve::rate_latency(5.0, 1.0),
                                   Curve::affine(2.0, 3.0));
  EXPECT_EQ(r.value(1.0), 0.0);
  EXPECT_EQ(r.value(8.0 / 3.0), 0.0);
  EXPECT_NEAR(r.value(4.0), 5.0 * 3.0 - (3.0 + 2.0 * 4.0), 1e-9);
  EXPECT_DOUBLE_EQ(r.tail_slope(), 3.0);
}

TEST(SubtractClamped, MatchesBruteForceWhenMonotone) {
  util::Xoshiro256 rng(7771);
  int monotone_cases = 0;
  for (int iter = 0; iter < 40; ++iter) {
    // Convex-ish f with dominant tail keeps the residual monotone often.
    Curve f = add(random_curve(rng, 1 + iter % 3, 3.0, false),
                  Curve::rate(8.0));
    const Curve g = random_curve(rng, 1 + (iter / 3) % 3, 3.0);
    Curve r = Curve::zero();
    try {
      r = subtract_clamped(f, g);
    } catch (const util::PreconditionError&) {
      continue;  // non-monotone residual: correctly rejected
    }
    ++monotone_cases;
    const double hi = f.last_breakpoint() + g.last_breakpoint() + 2.0;
    for (double t = 0.0; t <= hi; t += hi / 23.0) {
      const double expected = std::max(0.0, f.value(t) - g.value(t));
      EXPECT_NEAR(r.value(t), expected, 1e-6 * (1.0 + expected))
          << "t=" << t << "\nf=" << f.describe() << "\ng=" << g.describe();
    }
  }
  EXPECT_GT(monotone_cases, 10);  // the property actually got exercised
}

TEST(SubtractClamped, RejectsNonMonotoneResidual) {
  // f linear, g with a big burst later: f - g dips after the jump.
  const Curve f = Curve::rate(2.0);
  const Curve g = Curve::step(5.0, 3.0);  // jump of 5 at t=3
  EXPECT_THROW(subtract_clamped(f, g), util::PreconditionError);
}

TEST(SubtractClamped, ZeroWhenDominated) {
  const Curve r = subtract_clamped(Curve::rate(1.0), Curve::affine(2.0, 1.0));
  EXPECT_TRUE(r.is_zero());
}

TEST(SubtractClamped, ResidualIsAValidServiceCurve) {
  // Using the residual as beta for the cross-traffic-free flow must give
  // bounds at least as large as with the full service curve.
  const Curve beta = Curve::rate_latency(10.0, 0.5);
  const Curve cross = Curve::affine(3.0, 1.0);
  const Curve flow = Curve::affine(2.0, 1.0);
  const Curve residual = subtract_clamped(beta, cross);
  EXPECT_GE(horizontal_deviation(flow, residual),
            horizontal_deviation(flow, beta));
  EXPECT_GE(vertical_deviation(flow, residual),
            vertical_deviation(flow, beta));
}

// --- Property tests against brute force on random curves ---------------------

class RandomCurveProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomCurveProperty, ConvolutionMatchesBruteForce) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 13u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4);
  const Curve g = random_curve(rng, 1 + (GetParam() / 4) % 4);
  const Curve c = convolve(f, g);
  const double hi = f.last_breakpoint() + g.last_breakpoint() + 2.0;
  for (double t = 0.0; t <= hi; t += hi / 23.0) {
    const double expected = ref_convolve(f, g, t);
    EXPECT_NEAR(c.value(t), expected, 1e-3 * (1.0 + std::fabs(expected)))
        << "t=" << t << "\nf=" << f.describe() << "\ng=" << g.describe();
  }
}

TEST_P(RandomCurveProperty, ConvolutionIsCommutative) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 7u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4);
  const Curve g = random_curve(rng, 1 + (GetParam() / 3) % 4);
  const Curve fg = convolve(f, g);
  const Curve gf = convolve(g, f);
  const double hi = f.last_breakpoint() + g.last_breakpoint() + 2.0;
  for (double t = 0.0; t <= hi; t += hi / 17.0) {
    EXPECT_NEAR(fg.value(t), gf.value(t), 1e-6 * (1.0 + fg.value(t)));
  }
}

TEST_P(RandomCurveProperty, ConvolutionIsAssociative) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 15485863u);
  const Curve f = random_curve(rng, 1 + GetParam() % 3);
  const Curve g = random_curve(rng, 1 + (GetParam() / 3) % 3);
  const Curve h = random_curve(rng, 1 + (GetParam() / 9) % 3);
  const Curve left = convolve(convolve(f, g), h);
  const Curve right = convolve(f, convolve(g, h));
  const double hi =
      f.last_breakpoint() + g.last_breakpoint() + h.last_breakpoint() + 2.0;
  for (double t = 0.0; t <= hi; t += hi / 17.0) {
    EXPECT_NEAR(left.value(t), right.value(t),
                1e-5 * (1.0 + left.value(t)))
        << "t=" << t;
  }
}

TEST_P(RandomCurveProperty, ConvolutionIsIsotone) {
  // f <= f' implies f (x) g <= f' (x) g.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4);
  const Curve fp = add(f, random_curve(rng, 2, 2.0, false));
  const Curve g = random_curve(rng, 1 + (GetParam() / 5) % 4);
  const Curve lo = convolve(f, g);
  const Curve hi_c = convolve(fp, g);
  const double hi = f.last_breakpoint() + g.last_breakpoint() + 2.0;
  for (double t = 0.0; t <= hi; t += hi / 19.0) {
    EXPECT_LE(lo.value(t), hi_c.value(t) + 1e-7 * (1.0 + lo.value(t)));
  }
}

TEST_P(RandomCurveProperty, DeconvolutionMatchesBruteForce) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 99991u + 3u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4, 4.0);
  // Ensure g's tail dominates so the deconvolution is finite.
  Curve g = random_curve(rng, 1 + (GetParam() / 4) % 4, 4.0);
  g = add(g, Curve::rate(4.5));
  const Curve d = deconvolve(f, g);
  ASSERT_TRUE(d.is_finite());
  const double hi = f.last_breakpoint() + g.last_breakpoint() + 2.0;
  for (double t = 0.0; t <= hi; t += hi / 19.0) {
    const double expected = ref_deconvolve(f, g, t);
    EXPECT_NEAR(d.value(t), expected, 1e-3 * (1.0 + std::fabs(expected)))
        << "t=" << t << "\nf=" << f.describe() << "\ng=" << g.describe();
  }
}

TEST_P(RandomCurveProperty, DeconvolutionDuality) {
  // f (/) g <= h iff f <= g (x) h ... spot-check the forward direction:
  // f <= g (x) (f (/) g) fails in general, but the classic duality
  // f (x) g (/) g >= f (x) g ... keep it simple and well-founded:
  // (f (/) g) (x) g >= ... Instead check: deconvolve(convolve(f,g), g) >= f(x)g?
  // Use the always-true inequality (f (x) g) (/) g >= f - g(0)... The robust
  // universally valid property: f <= (f (/) g) (x) g  when g(0) = 0.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31337u + 1u);
  const Curve f = random_curve(rng, 1 + GetParam() % 4, 4.0);
  Curve g = random_curve(rng, 1 + (GetParam() / 4) % 4, 4.0, false);
  g = add(g, Curve::rate(4.5));
  ASSERT_EQ(g.value(0.0), 0.0);
  const Curve d = deconvolve(f, g);
  ASSERT_TRUE(d.is_finite());
  const Curve back = convolve(d, g);
  const double hi = f.last_breakpoint() + g.last_breakpoint() + 2.0;
  for (double t = 0.0; t <= hi; t += hi / 19.0) {
    EXPECT_GE(back.value(t) + 1e-5 * (1.0 + f.value(t)), f.value(t))
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCurveProperty, ::testing::Range(0, 24));

}  // namespace
}  // namespace streamcalc::minplus
