// Differential fuzzing of the exact min-plus operators against brute-force
// evaluation of their defining inf/sup expressions (tests/minplus/
// reference.hpp), plus structural checks on the curve generator itself.
//
// The generator's pathological mode reproduces the shapes that have broken
// curve code before — micro-segments with nearly-equal slopes, huge
// magnitudes, squeezed time axes — so these properties double as a
// regression net for the normalize()/repair path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "certify/exact.hpp"
#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "minplus/reference.hpp"
#include "testing/compare.hpp"
#include "testing/exact_minplus.hpp"
#include "testing/property.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rational.hpp"

namespace streamcalc::testing {
namespace {

using minplus::Curve;
using minplus::testing::ref_convolve;
using minplus::testing::ref_deconvolve;
using minplus::testing::ref_horizontal;
using minplus::testing::ref_vertical;

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_holds(FuzzSpec spec, const PropertyFn& property) {
  const auto failure = fuzz(spec, property);
  EXPECT_FALSE(failure.has_value()) << failure->report();
}

/// |a - b| within a relative-plus-absolute envelope; infinities must agree.
bool close(double a, double b, double rtol = 1e-6, double atol = 1e-9) {
  if (a == kInf || b == kInf) return a == b;
  return std::fabs(a - b) <= atol + rtol * std::max(std::fabs(a),
                                                    std::fabs(b));
}

/// Deterministic evaluation points spanning a curve pair.
std::vector<double> sample_ts(const Curve& f, const Curve& g) {
  const double hi =
      std::max(f.last_breakpoint(), g.last_breakpoint()) + 1.0;
  return {0.0, hi * 0.17, hi * 0.43, hi * 0.71, hi};
}

TEST(GeneratorFuzz, GeneratedCurvesAreValidAndNormalized) {
  expect_holds(FuzzSpec{{CurveKind::kAny}, {}, 0xb001},
               [](const std::vector<Curve>& c) {
                 // Re-running the constructor on the segments must accept
                 // them and reproduce the identical (already-normalized)
                 // curve.
                 const Curve rebuilt(
                     std::vector<minplus::Segment>(c[0].segments()));
                 if (!(rebuilt == c[0])) {
                   return std::string(
                       "generated curve is not a normalize() fixpoint");
                 }
                 return std::string();
               });
}

TEST(GeneratorFuzz, GeneratedCurvesAreWideSenseIncreasing) {
  expect_holds(FuzzSpec{{CurveKind::kAny}, {}, 0xb002},
               [](const std::vector<Curve>& c) {
                 const auto pts = probe_times(c[0], c[0]);
                 double prev = 0.0;
                 for (const double t : pts) {
                   const double v = c[0].value(t);
                   if (v + 1e-9 < prev) {
                     return "curve decreases at t=" +
                            util::format_significant(t, 17);
                   }
                   prev = std::max(prev, c[0].value_right(t));
                 }
                 return std::string();
               });
}

TEST(GeneratorFuzz, ArrivalAndServiceKindsMatchTheirContracts) {
  expect_holds(
      FuzzSpec{{CurveKind::kArrival, CurveKind::kService}, {}, 0xb003},
      [](const std::vector<Curve>& c) {
        if (c[0].value(0.0) != 0.0) {
          return std::string("arrival curve not 0 at t=0");
        }
        if (!c[0].is_finite()) {
          return std::string("arrival curve has an infinite tail");
        }
        if (!c[1].is_finite()) {
          return std::string("service curve has an infinite tail");
        }
        const minplus::Segment& tail = c[1].segments().back();
        if (tail.slope <= 0.0) {
          return std::string("service curve does not eventually grow");
        }
        return std::string();
      });
}

TEST(OperatorFuzz, ConvolveMatchesBruteForce) {
  FuzzSpec spec{{CurveKind::kFinite, CurveKind::kFinite}, {}, 0xb004};
  spec.cases = scaled_cases(150);  // the dense-grid reference is expensive
  spec.gen.pathological_bias = 0.0;  // grid probing can't resolve 1e-12 gaps
  expect_holds(spec, [](const std::vector<Curve>& c) {
    const Curve result = convolve(c[0], c[1]);
    for (const double t : sample_ts(c[0], c[1])) {
      const double exact = result.value(t);
      const double ref = ref_convolve(c[0], c[1], t);
      // The exact algorithm takes a true infimum; the grid reference can
      // only overshoot it.
      if (exact > ref + 1e-9 + 1e-6 * std::fabs(ref)) {
        return "convolve(t=" + util::format_significant(t, 17) +
               ") = " + util::format_significant(exact, 17) +
               " exceeds brute-force " + util::format_significant(ref, 17);
      }
      if (ref > exact + 0.05 * (1.0 + std::fabs(exact))) {
        return "convolve(t=" + util::format_significant(t, 17) +
               ") = " + util::format_significant(exact, 17) +
               " far below brute-force " + util::format_significant(ref, 17);
      }
    }
    return std::string();
  });
}

/// "" if `result`'s value and right limit match the exact reference
/// `want` (an ExactPoint at a double time) within close() at every
/// breakpoint of the result and at sample_ts(f, g); otherwise names the
/// first disagreement. A result breakpoint sits at a rounded sum or
/// difference of operand abscissae, up to half an ulp from the exact one,
/// so where the pointwise comparison fails the values may instead lie in
/// the exact range over a window of 8 ulps of 1 + t around t.
template <typename Want>
std::string matches_exact(const char* op, const Curve& result,
                          const Curve& f, const Curve& g, const Want& want) {
  std::vector<double> ts = sample_ts(f, g);
  for (const minplus::Segment& s : result.segments()) ts.push_back(s.x);
  for (const double t : ts) {
    const double got = result.value(t);
    const double got_right = result.value_right(t);
    const ExactPoint exact = want(t);
    if (close(got, exact.value.approx()) &&
        close(got_right, exact.right.approx())) {
      continue;
    }
    const double d = 8.0 * std::numeric_limits<double>::epsilon() * (1.0 + t);
    const double lo = want(std::max(0.0, t - d)).value.approx();
    const double hi = want(t + d).right.approx();
    const auto inside = [&](double v) {
      return close(v, lo) || close(v, hi) || (lo <= v && v <= hi);
    };
    if (inside(got) && inside(got_right)) continue;
    return std::string(op) + "(t=" + util::format_significant(t, 17) +
           ") = " + util::format_significant(got, 17) + " (right limit " +
           util::format_significant(got_right, 17) + "), exact reference " +
           exact.value.to_string() + " (right limit " +
           exact.right.to_string() + ")";
  }
  return std::string();
}

TEST(OperatorFuzz, ConvolveMatchesExactReference) {
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xb005};
  expect_holds(spec, [](const std::vector<Curve>& c) {
    const certify::ExactCurve f = certify::ExactCurve::from(c[0]);
    const certify::ExactCurve g = certify::ExactCurve::from(c[1]);
    return matches_exact("convolve", convolve(c[0], c[1]), c[0], c[1],
                         [&](double t) {
                           return exact_convolve_at(
                               f, g, util::Rational::from_double(t));
                         });
  });
}

TEST(OperatorFuzz, DeconvolveMatchesExactReference) {
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xb00a};
  expect_holds(spec, [](const std::vector<Curve>& c) {
    // Tail slopes within the divergence test's tolerance of each other are
    // "equal tails" to the kernel and not to the exact reference.
    const bool diverges = c[1].is_finite() &&
                          c[0].tail_slope() > c[1].tail_slope();
    if (diverges != (minplus::detail::classify_deconvolve(c[0], c[1]) ==
                     minplus::detail::DeconvKernel::kDivergent)) {
      return std::string();
    }
    const certify::ExactCurve f = certify::ExactCurve::from(c[0]);
    const certify::ExactCurve g = certify::ExactCurve::from(c[1]);
    return matches_exact("deconvolve", deconvolve(c[0], c[1]), c[0], c[1],
                         [&](double t) {
                           return exact_deconvolve_at(
                               f, g, util::Rational::from_double(t));
                         });
  });
}

// --- One-sided limits --------------------------------------------------------
// Hand-built pairs whose exact value at one time is reached only as a
// one-sided limit of the split: f jumps at x and g at y, and the
// infimum (supremum) is approached, never attained, as the split tends to
// them from one side. Every value is a small dyadic, so the kernels must
// hit the exact reference, and the hand-derived number, bit for bit.

/// Asserts that `result` and its right limit at `t` equal the exact
/// reference bit for bit, that result(t) == `expected`, and that the rest
/// of `result` matches the reference as the fuzz tests require.
template <typename Want>
void expect_exact(const char* op, const Curve& result, const Curve& f,
                  const Curve& g, double t, double expected,
                  const Want& want) {
  EXPECT_EQ(result.value(t), expected) << result.describe();
  const ExactPoint exact = want(t);
  EXPECT_EQ(exact_relative_gap(result.value(t), exact.value), 0.0)
      << result.describe();
  EXPECT_EQ(exact_relative_gap(result.value_right(t), exact.right), 0.0)
      << result.describe();
  EXPECT_EQ(matches_exact(op, result, f, g, want), "");
}

TEST(OneSidedLimit, ConvolveLeftLimitOfFMeetsRightLimitOfG) {
  // f rises at slope 1 to f(1-) = 1 and jumps to 5 at 1; g is 0 up to and
  // at 2, then jumps to g(2+) = 2 and rises at slope 2. At t = 3 the split
  // s -> 1- gives f(s) + g(3 - s) = 3 + (1 - s) -> 3; s = 1 gives 5 + 0.
  const Curve f({{0.0, 0.0, 0.0, 1.0}, {1.0, 5.0, 5.0, 0.0}});
  const Curve g({{0.0, 0.0, 0.0, 0.0}, {2.0, 0.0, 2.0, 2.0}});
  ASSERT_EQ(minplus::detail::classify_convolve(f, g),
            minplus::detail::ConvKernel::kGeneral);
  for (const bool swap : {false, true}) {
    const Curve& a = swap ? g : f;
    const Curve& b = swap ? f : g;
    expect_exact("convolve", convolve(a, b), a, b, 3.0, 3.0,
                 [&](double t) { return exact_convolve_at(a, b, t); });
  }
}

TEST(OneSidedLimit, ConvolveJumpsOfBothOperandsAtOneSum) {
  // f jumps at 1 from f(1-) = 0 through f(1) = 1 to 3; g jumps at 2 from 0
  // to 5. At t = 3 the split s = 1 gives f(1) + g(2) = 1, while s -> 1-
  // meets g's right limit: 0 + 5. Pairing f's left limit with g's point
  // value there would give 0.
  const Curve f({{0.0, 0.0, 0.0, 0.0}, {1.0, 1.0, 3.0, 0.0}});
  const Curve g({{0.0, 0.0, 0.0, 0.0}, {2.0, 0.0, 5.0, 0.0}});
  for (const bool swap : {false, true}) {
    const Curve& a = swap ? g : f;
    const Curve& b = swap ? f : g;
    expect_exact("convolve", convolve(a, b), a, b, 3.0, 1.0,
                 [&](double t) { return exact_convolve_at(a, b, t); });
  }
}

TEST(OneSidedLimit, DeconvolveLeftLimitsOfBothOperands) {
  // g is 0 before 1 and jumps to g(1) = 5; f rises at slope 4 from 1 to
  // f(2-) = 4 and jumps to 6 at 2. At t = 1 the split s -> 1- gives
  // f(1 + s) - g(s) = 4s -> 4, while s = 1 gives 6 - 5.
  const Curve f({{0.0, 0.0, 0.0, 0.0}, {1.0, 0.0, 0.0, 4.0},
                 {2.0, 6.0, 6.0, 0.0}});
  const Curve g({{0.0, 0.0, 0.0, 0.0}, {1.0, 5.0, 5.0, 1.0}});
  expect_exact("deconvolve", deconvolve(f, g), f, g, 1.0, 4.0,
               [&](double t) { return exact_deconvolve_at(f, g, t); });
}

TEST(OneSidedLimit, DeconvolveRightLimitsOfBothOperands) {
  // f jumps at 2 from f(2) = 1 to 6; g jumps at 1 from g(1) = 0 to 2 and
  // rises at slope 1. At t = 1 the split s -> 1+ gives 6 - (2 + (s - 1))
  // -> 4, while s = 1 gives 1 - 0.
  const Curve f({{0.0, 0.0, 0.0, 0.0}, {2.0, 1.0, 6.0, 0.0}});
  const Curve g({{0.0, 0.0, 0.0, 0.0}, {1.0, 0.0, 2.0, 1.0}});
  expect_exact("deconvolve", deconvolve(f, g), f, g, 1.0, 4.0,
               [&](double t) { return exact_deconvolve_at(f, g, t); });
}

// A shifted jump lands on a rounded abscissa. Where fl(x + y) lies past
// the exact sum, the operator there is already past the jump, and a
// branch that kept the operand's point value would report the value from
// before it.

TEST(OneSidedLimit, ConvolveJumpBeforeARoundedSum) {
  // f and g step from 0 to 1 right after 0.1 and 0.2. The exact sum of
  // those doubles lies below fl(0.1 + 0.2), so there the convolution is 1,
  // not the 0 that the split s = 0.1 gives at the exact sum.
  const Curve f({{0.0, 0.0, 0.0, 0.0}, {0.1, 0.0, 1.0, 0.0}});
  const Curve g({{0.0, 0.0, 0.0, 0.0}, {0.2, 0.0, 1.0, 0.0}});
  for (const bool swap : {false, true}) {
    const Curve& a = swap ? g : f;
    const Curve& b = swap ? f : g;
    expect_exact("convolve", convolve(a, b), a, b, 0.1 + 0.2, 1.0,
                 [&](double t) { return exact_convolve_at(a, b, t); });
  }
}

TEST(OneSidedLimit, DeconvolveJumpBeforeARoundedDifference) {
  // f steps from 0 to 1 right after 0.5 and g from 0 to 10 right after
  // 0.1, so (f (/) g)(t) = f(t + 0.1). fl(0.5 - 0.1) = 0.4 lies above the
  // exact difference, so there the deconvolution is already 1.
  const Curve f({{0.0, 0.0, 0.0, 0.0}, {0.5, 0.0, 1.0, 0.0}});
  const Curve g({{0.0, 0.0, 0.0, 0.0}, {0.1, 0.0, 10.0, 0.0}});
  expect_exact("deconvolve", deconvolve(f, g), f, g, 0.5 - 0.1, 1.0,
               [&](double t) { return exact_deconvolve_at(f, g, t); });
}

TEST(OperatorFuzz, DeconvolveMatchesBruteForce) {
  FuzzSpec spec{{CurveKind::kFinite, CurveKind::kFinite}, {}, 0xb006};
  spec.cases = scaled_cases(150);
  spec.gen.pathological_bias = 0.0;
  expect_holds(spec, [](const std::vector<Curve>& c) {
    const Curve result = deconvolve(c[0], c[1]);
    for (const double t : sample_ts(c[0], c[1])) {
      const double exact = result.value(t);
      const double ref = ref_deconvolve(c[0], c[1], t);
      // The exact algorithm takes a true supremum; the grid can only
      // undershoot it.
      if (ref > exact + 1e-9 + 1e-6 * std::fabs(exact)) {
        return "deconvolve(t=" + util::format_significant(t, 17) +
               ") = " + util::format_significant(exact, 17) +
               " below brute-force " + util::format_significant(ref, 17);
      }
      if (exact != kInf && exact > ref + 0.05 * (1.0 + std::fabs(ref))) {
        return "deconvolve(t=" + util::format_significant(t, 17) +
               ") = " + util::format_significant(exact, 17) +
               " far above brute-force " + util::format_significant(ref, 17);
      }
    }
    return std::string();
  });
}

TEST(OperatorFuzz, DeviationsMatchBruteForce) {
  FuzzSpec spec{{CurveKind::kArrival, CurveKind::kService}, {}, 0xb007};
  spec.cases = scaled_cases(150);
  spec.gen.pathological_bias = 0.0;
  expect_holds(spec, [](const std::vector<Curve>& c) {
    const double v = minplus::vertical_deviation(c[0], c[1]);
    const double v_ref = ref_vertical(c[0], c[1]);
    // Exact supremum vs grid: the grid can only undershoot.
    if (v_ref > v + 1e-9 + 1e-6 * std::fabs(v)) {
      return "vertical deviation " + util::format_significant(v, 17) +
             " below brute-force " + util::format_significant(v_ref, 17);
    }
    if (v != kInf && v > v_ref + 0.05 * (1.0 + std::fabs(v_ref))) {
      return "vertical deviation " + util::format_significant(v, 17) +
             " far above brute-force " + util::format_significant(v_ref, 17);
    }
    const double h = minplus::horizontal_deviation(c[0], c[1]);
    const double h_ref = ref_horizontal(c[0], c[1]);
    if (h_ref > h + 1e-6 + 1e-6 * std::fabs(h)) {
      return "horizontal deviation " + util::format_significant(h, 17) +
             " below brute-force " + util::format_significant(h_ref, 17);
    }
    if (h != kInf && h > h_ref + 0.05 * (1.0 + std::fabs(h_ref))) {
      return "horizontal deviation " + util::format_significant(h, 17) +
             " far above brute-force " +
             util::format_significant(h_ref, 17);
    }
    return std::string();
  });
}

TEST(OperatorFuzz, PathologicalCurvesSurviveTheFullOperatorSet) {
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xb008};
  spec.gen.pathological_bias = 1.0;  // every draw perturbed
  expect_holds(spec, [](const std::vector<Curve>& c) {
    // Success = no operator throws or produces an invalid curve; each
    // result re-validates via the Curve constructor inside the operator.
    (void)convolve(c[0], c[1]);
    (void)deconvolve(c[0], c[1]);
    (void)minimum(c[0], c[1]);
    (void)maximum(c[0], c[1]);
    (void)add(c[0], c[1]);
    try {
      (void)minplus::subtract_clamped(c[0], c[1]);
    } catch (const util::PreconditionError&) {
      // Documented contract: [f - g]^+ that is not wide-sense increasing
      // is not a valid residual service curve and must be rejected (not
      // silently repaired). Any other exception still fails the property.
    }
    (void)minplus::vertical_deviation(c[0], c[1]);
    (void)minplus::horizontal_deviation(c[0], c[1]);
    return std::string();
  });
}

}  // namespace
}  // namespace streamcalc::testing
