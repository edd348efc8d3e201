// Internal: direct segment arithmetic on two curves in O(n + m), shared by
// the operation implementations. Not part of the public API.
//
// sweep_grid walks the union of both operands' breakpoints with one cursor
// per segment list and hands each grid point the two operand lines there.
// Three operations run on it:
//   * add (operations.cpp): each piece of f + g is the sum of one piece of
//     each operand, so values, right limits and slopes add at every grid
//     point, one rounding each, and Curve's constructor canonicalizes the
//     result;
//   * subtract_clamped (operations.cpp): each piece of f - g is the
//     difference of one piece of each operand; the clamp at 0 adds at most
//     one zero crossing per interval, from the closed form rounded up;
//   * merge_envelope: the pointwise minimum or maximum, the workhorse
//     behind the shape-aware kernels (DESIGN.md §11). The general min-plus
//     convolution reduces O(n) branch curves through a pairwise minimum
//     tree, so the cost of one two-curve minimum multiplies into
//     everything. Values and slopes are copied bit-exactly from the winning
//     operand, and at most one crossing breakpoint is synthesized per
//     interval from the closed-form intersection of the two lines.
//
// The envelope's numerical guards:
//   * nearly-parallel lines (slope gap at noise level relative to the
//     slopes) produce no crossing — the division would fabricate an absurd
//     abscissa;
//   * a crossing within rounding distance of the next grid point is
//     dropped (the next grid point re-evaluates both lines);
//   * emitted slopes are rechorded against the next breakpoint's exact
//     value, so independent rounding of crossing abscissae cannot make a
//     piece overextend past validation tolerances.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "minplus/curve.hpp"
#include "minplus/detail/builder.hpp"

namespace streamcalc::minplus::detail {

/// One operand's affine state on the interval right of a grid point.
struct MergeLine {
  double at = 0.0;     ///< value at the grid point
  double after = 0.0;  ///< right limit at the grid point
  double slope = 0.0;  ///< slope on the open interval (until the next point)
};

/// The line of segs[i], the segment containing grid point x: its stored
/// value and right limit at its own breakpoint, else its extension to x.
inline MergeLine line_of(const std::vector<Segment>& segs, std::size_t i,
                         double x) {
  const Segment& s = segs[i];
  MergeLine ln;
  if (x == s.x) {
    ln.at = s.value_at;
    ln.after = s.value_after;
  } else {
    const double v =
        s.value_after == kInf ? kInf : s.value_after + s.slope * (x - s.x);
    ln.at = v;
    ln.after = v;
  }
  ln.slope = s.slope;
  return ln;
}

/// Calls visit(x, nx, a, b) at each point x of the union of A's and B's
/// breakpoints, in increasing order: a and b are the operands' lines at x,
/// nx the next grid point (+inf after the last).
template <typename Visit>
void sweep_grid(const Curve& A, const Curve& B, const Visit& visit) {
  const std::vector<Segment>& as = A.segments();
  const std::vector<Segment>& bs = B.segments();
  std::size_t ia = 0, ib = 0;  // segment containing the current grid point
  double x = 0.0;
  while (true) {
    const double na = ia + 1 < as.size() ? as[ia + 1].x : kInf;
    const double nb = ib + 1 < bs.size() ? bs[ib + 1].x : kInf;
    const double nx = std::min(na, nb);
    visit(x, nx, line_of(as, ia, x), line_of(bs, ib, x));
    if (nx == kInf) return;
    x = nx;
    while (ia + 1 < as.size() && as[ia + 1].x <= x) ++ia;
    while (ib + 1 < bs.size() && bs[ib + 1].x <= x) ++ib;
  }
}

template <bool kMin>
Curve merge_envelope(const Curve& A, const Curve& B) {
  std::vector<Segment> out;
  out.reserve(A.segments().size() + B.segments().size() + 4);

  const auto op = [](double x, double y) {
    return kMin ? std::min(x, y) : std::max(x, y);
  };

  sweep_grid(A, B, [&](double x, double nx, const MergeLine& a,
                       const MergeLine& b) {
    const double out_at = op(a.at, b.at);
    const double out_after = op(a.after, b.after);

    // The winning line on (x, nx), and at most one crossing inside it.
    double slope = 0.0;
    double cross_t = -1.0;
    double cross_slope = 0.0;
    double cross_base = 0.0;  ///< post-crossing winner's right limit at x
    if (out_after != kInf) {
      if (a.after == kInf) {
        slope = b.slope;  // only reachable for kMin: B rules the interval
      } else if (b.after == kInf) {
        slope = a.slope;
      } else {
        const double d0 = a.after - b.after;
        const double ds = a.slope - b.slope;
        // Ties are tolerance-aware, matching the curve canonicalization:
        // normalize() nudges breakpoint values by rounding noise (left-limit
        // monotonicity lifts), so two branches of the same envelope can
        // differ by an ulp where they are mathematically equal. Breaking
        // such a "tie" by value sign would hand the interval to the wrong
        // line (e.g. a ramp beating the flat piece it just met), so at noise
        // level the slope decides: the flatter line is the minimum (steeper
        // the maximum) immediately to the right.
        const double vtol =
            1e-9 * (1.0 + std::max(std::fabs(a.after), std::fabs(b.after)));
        const bool tie = std::fabs(d0) <= vtol;
        const bool a_wins = tie ? (kMin ? a.slope <= b.slope
                                        : a.slope >= b.slope)
                                : (kMin ? d0 < 0.0 : d0 > 0.0);
        slope = a_wins ? a.slope : b.slope;
        // The loser overtakes where the lines intersect. t > x requires the
        // sign combination that makes the loser catch up, so any t ahead of
        // x is a genuine winner switch. Nearly-parallel lines have no
        // numerically meaningful crossing (the division fabricates an
        // absurd abscissa). The values differ by more than noise here, so
        // a crossing just past x is emitted too: folding it into x would
        // pair the old winner's value with the new winner's slope, off by
        // the whole gap d0 until the next grid point.
        if (!tie &&
            std::fabs(ds) > 1e-9 * (std::fabs(a.slope) + std::fabs(b.slope))) {
          const double t = x - d0 / ds;
          const double tol = 4e-12 * (1.0 + std::fabs(t));
          if (t > x && t < nx - tol) {
            cross_t = t;
            cross_slope = a_wins ? b.slope : a.slope;
            cross_base = a_wins ? b.after : a.after;
          }
        }
      }
    }

    out.push_back(Segment{x, out_at, out_after,
                          out_after == kInf ? 0.0 : slope});
    if (cross_t > 0.0) {
      // Incoming winner's extension and outgoing winner's line, evaluated
      // the way validation re-derives them (absolute abscissa difference).
      // Rounding cross_t to an absolute abscissa costs ~eps*|x|, which a
      // steep incoming slope amplifies: its extension can land measurably
      // above the outgoing (flatter) line, and the outgoing piece would
      // then dip below the crossing value by the next grid point. Anchor
      // the crossing on the outgoing line in that case and re-chord the
      // incoming piece so both transitions stay inside validation
      // tolerance.
      const double dx = cross_t - x;
      const double la = out_after + slope * dx;
      const double lb = cross_base + cross_slope * dx;
      double v = la;
      if (!(la <= lb + 1e-10 * (1.0 + std::fabs(lb)))) {
        v = std::max(lb, out.back().value_after);
        Segment& prev = out.back();
        prev.slope = std::max(0.0, (v - prev.value_after) / dx);
      }
      out.push_back(Segment{cross_t, v, v, cross_slope});
    }
  });
  // Crossing abscissae round independently of the grid values; lower any
  // slope whose extrapolation overshoots the next exact value (never
  // raised: that would erase a jump).
  rechord_translated(out);
  return Curve(std::move(out));
}

/// Pointwise minimum of two curves by direct segment merge, O(n + m).
inline Curve merge_minimum(const Curve& a, const Curve& b) {
  return merge_envelope<true>(a, b);
}

/// Pointwise maximum of two curves by direct segment merge, O(n + m).
inline Curve merge_maximum(const Curve& a, const Curve& b) {
  return merge_envelope<false>(a, b);
}

}  // namespace streamcalc::minplus::detail
