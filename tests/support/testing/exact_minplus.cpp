#include "testing/exact_minplus.hpp"

#include <limits>

#include "util/error.hpp"

namespace streamcalc::testing {

using certify::ExactCurve;
using certify::ExtRat;
using util::Rational;

namespace {

/// Running infimum of f-value + g-value over the offered pairs.
struct Infimum {
  ExtRat best = ExtRat::infinity();
  void offer(const ExtRat& a, const ExtRat& b) {
    if (a.is_inf() || b.is_inf()) return;  // +inf never lowers an infimum
    const ExtRat sum(a.finite() + b.finite());
    if (sum < best) best = sum;
  }
};

/// Running supremum of f-value - g-value over the offered pairs, starting
/// from the clamp at 0. A split where g is +inf contributes nothing; one
/// where only f is +inf makes the supremum +inf.
struct Supremum {
  ExtRat best;  // zero
  void offer(const ExtRat& a, const ExtRat& b) {
    if (b.is_inf()) return;
    if (a.is_inf()) {
      best = ExtRat::infinity();
      return;
    }
    const ExtRat diff(a.finite() - b.finite());
    if (best < diff) best = diff;
  }
};

}  // namespace

ExactPoint exact_convolve_at(const ExactCurve& f, const ExactCurve& g,
                             const Rational& t) {
  util::require(!t.is_negative(), "exact_convolve_at requires t >= 0");
  Infimum value, right;
  // Splits s = x at a breakpoint x <= t of f. Approaching x from the left
  // pushes t - s above t - x, and from the right below it. For t' -> t+
  // the complement t' - x approaches t - x from above whatever side s
  // takes, so the right limit pairs g's right limit with the smallest of
  // f's three values there, its left limit.
  for (const certify::ExactSegment& a : f.segments()) {
    if (a.x > t) break;
    const Rational u = t - a.x;
    const ExactCurve::Limits fx = f.limits(a.x);
    const ExactCurve::Limits gu = g.limits(u);
    value.offer(fx.value, gu.value);
    if (!a.x.is_zero()) value.offer(fx.left, gu.right);
    if (!u.is_zero()) value.offer(fx.right, gu.left);
    right.offer(fx.left, gu.right);
  }
  // Splits s = t - y at a breakpoint y <= t of g, the mirror image.
  for (const certify::ExactSegment& b : g.segments()) {
    if (b.x > t) break;
    const Rational s = t - b.x;
    const ExactCurve::Limits fs = f.limits(s);
    const ExactCurve::Limits gy = g.limits(b.x);
    value.offer(fs.value, gy.value);
    if (!b.x.is_zero()) value.offer(fs.right, gy.left);
    if (!s.is_zero()) value.offer(fs.left, gy.right);
    right.offer(fs.right, gy.left);
  }
  return ExactPoint{value.best, right.best};
}

ExactPoint exact_deconvolve_at(const ExactCurve& f, const ExactCurve& g,
                               const Rational& t) {
  util::require(!t.is_negative(), "exact_deconvolve_at requires t >= 0");
  // Past every breakpoint f(t + s) - g(s) is affine in s with slope
  // f's tail slope minus g's: it grows without bound exactly when g stays
  // finite and f's tail is steeper (or +inf). Otherwise it does not rise
  // there, and the enumeration below covers the tail's start.
  if (g.finite_everywhere() && f.tail_slope() > g.tail_slope()) {
    return ExactPoint{ExtRat::infinity(), ExtRat::infinity()};
  }
  Supremum value, right;
  // Splits s = y at a breakpoint y of g: approaching y from either side
  // moves t + s to the same side. For t' -> t+ the sum t' + s approaches
  // t + y from above whatever side s takes, so the right limit pairs f's
  // right limit with the smallest of g's three values there, its left
  // limit.
  for (const certify::ExactSegment& b : g.segments()) {
    const ExactCurve::Limits fa = f.limits(t + b.x);
    const ExactCurve::Limits gy = g.limits(b.x);
    value.offer(fa.value, gy.value);
    if (!b.x.is_zero()) value.offer(fa.left, gy.left);
    value.offer(fa.right, gy.right);
    right.offer(fa.right, gy.left);
  }
  // Splits s = x - t at a breakpoint x >= t of f. For t' -> t+ the split
  // x - t' approaches x - t from below, so only x > t reach the right
  // limit, pairing f's largest value there, its right limit, with g's left
  // limit.
  for (const certify::ExactSegment& a : f.segments()) {
    if (a.x < t) continue;
    const Rational s = a.x - t;
    const ExactCurve::Limits fx = f.limits(a.x);
    const ExactCurve::Limits gs = g.limits(s);
    value.offer(fx.value, gs.value);
    if (!s.is_zero()) {
      value.offer(fx.left, gs.left);
      right.offer(fx.right, gs.left);
    }
    value.offer(fx.right, gs.right);
  }
  return ExactPoint{value.best, right.best};
}

ExactPoint exact_convolve_at(const minplus::Curve& f, const minplus::Curve& g,
                             double t) {
  return exact_convolve_at(ExactCurve::from(f), ExactCurve::from(g),
                           Rational::from_double(t));
}

ExactPoint exact_deconvolve_at(const minplus::Curve& f,
                               const minplus::Curve& g, double t) {
  return exact_deconvolve_at(ExactCurve::from(f), ExactCurve::from(g),
                             Rational::from_double(t));
}

double exact_relative_gap(double got, const ExtRat& want) {
  const ExtRat have = ExtRat::from_double(got);
  if (have.is_inf() || want.is_inf()) {
    return have == want ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const auto abs = [](const Rational& v) { return v.is_negative() ? -v : v; };
  return (abs(have.finite() - want.finite()) /
          (abs(want.finite()) + Rational(1)))
      .approx();
}

}  // namespace streamcalc::testing
