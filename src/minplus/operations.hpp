// Exact operations on piecewise-linear curves: the (min, +) dioid.
//
// Min-plus convolution and deconvolution are the two workhorses of network
// calculus:
//
//   (f (x) g)(t) = inf_{0 <= s <= t} f(s) + g(t - s)     (convolution)
//   (f (/) g)(t) = sup_{s >= 0}      f(t + s) - g(s)     (deconvolution)
//
// Convolution dispatches to closed forms where they exist (Le Boudec &
// Thiran, "Network Calculus", ch. 3):
//   * delta_T is the shift operator: f (x) delta_T = f shifted right by T;
//   * convex (x) convex = slope-sorted concatenation of segments;
//   * concave-from-origin (x) concave-from-origin = pointwise minimum;
// and otherwise falls back to a branch envelope: the infimum over the
// split is a value or a one-sided limit where the split sits at an
// operand breakpoint, each such anchor is a whole shifted copy of the
// other operand, and the result is the pointwise minimum of those copies.
// An anchor's left limit is paired with the other operand's right limits,
// so every point value comes out of the envelope directly, with no probe.
// Deconvolution is the dual, a pointwise maximum.
//
// No function samples its operands; the test suite validates them against
// an exact-rational evaluation of the defining inf/sup and against
// brute-force evaluation on dense grids.
#pragma once

#include "minplus/curve.hpp"

namespace streamcalc::minplus {

/// Pointwise sum f + g.
Curve add(const Curve& f, const Curve& g);

/// Pointwise minimum min(f, g) — which is also the min-plus "addition" of
/// the (min, +) dioid.
Curve minimum(const Curve& f, const Curve& g);

/// Pointwise maximum max(f, g).
Curve maximum(const Curve& f, const Curve& g);

/// Pointwise clamped difference [f - g]^+ = max(f - g, 0). The workhorse
/// of residual ("leftover") service curves: a server guaranteeing beta
/// that also carries cross-traffic bounded by alpha_cross leaves at least
/// [beta - alpha_cross]^+ for the flow of interest. Throws
/// util::PreconditionError when [f - g]^+ is not wide-sense increasing: a
/// downward jump, or a piece that starts at d > 0 and falls by more than
/// 1e-9 * (1 + d) over its span. A zero crossing of f - g is rounded up,
/// so the residual never lies above f - g.
Curve subtract_clamped(const Curve& f, const Curve& g);

/// Min-plus convolution (f (x) g). Exact; see file comment.
Curve convolve(const Curve& f, const Curve& g);

/// Min-plus deconvolution (f (/) g), clamped below at 0 (the deconvolution
/// of cumulative curves is an arrival bound and is never meaningfully
/// negative). If f grows asymptotically faster than g the deconvolution is
/// +inf everywhere; the returned curve is identically +inf (check with
/// Curve::is_finite()).
Curve deconvolve(const Curve& f, const Curve& g);

namespace detail {

// Shape-dispatch introspection (DESIGN.md §11). convolve()/deconvolve()
// classify their operands once and route to a specialized kernel; the
// classifiers and the general kernels are exposed here so the property
// suite can assert every specialized kernel pointwise-equals the general
// one, and so obs counters can record which kernel fired.

/// Which kernel convolve() routes a given operand pair to.
enum class ConvKernel {
  kDelay,         ///< one operand is delta_T: shift the other
  kConvex,        ///< convex (x) convex: slope-sorted merge, O(n log n)
  kConcave,       ///< concave (x) concave from origin: pointwise minimum
  kAffineConvex,  ///< single-segment (x) convex: min of two closed forms
  kGeneral,       ///< no structure applies: full branch envelope
};

/// Which kernel deconvolve() routes a given operand pair to.
enum class DeconvKernel {
  kDivergent,  ///< tail of f outgrows g: +inf everywhere
  kGeneral,    ///< full reflected-branch envelope
};

const char* kernel_name(ConvKernel k);
const char* kernel_name(DeconvKernel k);

/// The kernel convolve(f, g) will use (pure classification, no work).
ConvKernel classify_convolve(const Curve& f, const Curve& g);

/// The kernel deconvolve(f, g) will use (pure classification, no work).
DeconvKernel classify_deconvolve(const Curve& f, const Curve& g);

/// The shape-agnostic branch-envelope convolution — the reference the
/// specialized kernels are tested against. Exact for any operands.
Curve convolve_general(const Curve& f, const Curve& g);

/// The shape-agnostic reflected-branch-envelope deconvolution (assumes the
/// divergent case was excluded).
Curve deconvolve_general(const Curve& f, const Curve& g);

}  // namespace detail

}  // namespace streamcalc::minplus
