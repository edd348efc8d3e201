// Exact pointwise min-plus convolution and deconvolution, the reference the
// min-plus kernels are tested against.
//
//   (f (x) g)(t) = inf_{0 <= s <= t} f(s) + g(t - s)
//   (f (/) g)(t) = max(0, sup_{s >= 0} f(t + s) - g(s))
//
// Both are evaluated from these definitions over certify::ExactCurve, in
// exact rationals. For a fixed t the function of s is piecewise linear,
// with breakpoints where s or its complement sits at an operand
// breakpoint, so its infimum (supremum) is a value or a one-sided limit
// at one of those splits; every split contributes its value and both
// limits. The right limit in t is the same enumeration taken as t' -> t+.
// Nothing here calls minplus::convolve or minplus::deconvolve or shares
// code with them.
#pragma once

#include "certify/exact.hpp"
#include "minplus/curve.hpp"
#include "util/rational.hpp"

namespace streamcalc::testing {

/// An exact operator's value at t and its right limit lim_{t' -> t+}.
struct ExactPoint {
  certify::ExtRat value;
  certify::ExtRat right;
};

/// (f (x) g)(t) and its right limit. Requires t >= 0.
ExactPoint exact_convolve_at(const certify::ExactCurve& f,
                             const certify::ExactCurve& g,
                             const util::Rational& t);

/// (f (/) g)(t), clamped below at 0, and its right limit; both +inf where
/// the supremum diverges (f outgrows a g that stays finite). Requires
/// t >= 0.
ExactPoint exact_deconvolve_at(const certify::ExactCurve& f,
                               const certify::ExactCurve& g,
                               const util::Rational& t);

/// The operator values above for double operands and a double t.
ExactPoint exact_convolve_at(const minplus::Curve& f, const minplus::Curve& g,
                             double t);
ExactPoint exact_deconvolve_at(const minplus::Curve& f,
                               const minplus::Curve& g, double t);

/// |got - want| / (1 + |want|), computed exactly and rounded at the end:
/// 0 when both are +inf, +inf when exactly one is.
double exact_relative_gap(double got, const certify::ExtRat& want);

}  // namespace streamcalc::testing
