// Exact-rational re-evaluation of network-calculus bound definitions.
//
// This is the independent half of the proof-carrying verification layer
// (DESIGN.md §9). The fast kernels in minplus/operations.* compute
// convolutions and deviations on doubles with clever candidate pruning; a
// bug there would silently produce wrong bounds. This file re-evaluates
// the *definitions* only —
//
//   vertical deviation   sup_t [ alpha(t) - beta(t) ]          (backlog)
//   horizontal deviation sup_t inf{ d : alpha(t) <= beta(t+d) } (delay)
//
// — over exact rationals (util::Rational), converting the double
// breakpoints exactly (every finite double is dyadic). It deliberately
// shares NO code with minplus::operations: no convolution, no
// deconvolution, no kernel candidate pruning. The only shared knowledge is
// the Segment representation contract documented in minplus/curve.hpp,
// which both sides implement from the same written definition.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "certify/certificate.hpp"
#include "minplus/curve.hpp"
#include "util/rational.hpp"

namespace streamcalc::certify {

/// util::Rational extended with +infinity. Curve values may be +inf (the
/// burst-delay curve delta_T); abscissae and slopes are always finite.
class ExtRat {
 public:
  ExtRat() = default;  ///< zero
  // NOLINTNEXTLINE(google-explicit-constructor): finite rationals embed in ExtRat
  ExtRat(util::Rational v) : value_(std::move(v)) {}
  static ExtRat infinity() {
    ExtRat r;
    r.inf_ = true;
    return r;
  }
  /// Exact value of `v`; +inf maps to infinity(). Requires v == v (no NaN)
  /// and v != -inf.
  static ExtRat from_double(double v);

  bool is_inf() const { return inf_; }
  /// Requires !is_inf().
  const util::Rational& finite() const;

  /// Total order with +inf as the unique maximum (inf compares equal to
  /// inf).
  int compare(const ExtRat& o) const;
  bool operator==(const ExtRat& o) const { return compare(o) == 0; }
  bool operator<(const ExtRat& o) const { return compare(o) < 0; }
  bool operator<=(const ExtRat& o) const { return compare(o) <= 0; }
  bool operator>(const ExtRat& o) const { return compare(o) > 0; }
  bool operator>=(const ExtRat& o) const { return compare(o) >= 0; }

  /// inf + finite = inf.
  ExtRat operator+(const util::Rational& o) const;

  double approx() const;
  std::string to_string() const;

 private:
  bool inf_ = false;
  util::Rational value_;
};

/// One breakpoint of an exact curve; same semantics as minplus::Segment
/// (value at x, right limit after x, slope on the open interval).
struct ExactSegment {
  util::Rational x;
  ExtRat value_at;
  ExtRat value_after;
  util::Rational slope;  ///< always finite (curve invariant)
};

/// A piecewise-linear wide-sense-increasing curve with exact rational
/// breakpoints, converted losslessly from a minplus::Curve. Evaluation and
/// pseudo-inverses are implemented directly from the definitions in
/// minplus/curve.hpp — independently of the double code paths.
class ExactCurve {
 public:
  /// Lossless conversion: every finite double breakpoint becomes the
  /// dyadic rational it exactly represents; +inf values carry over.
  static ExactCurve from(const minplus::Curve& c);

  const std::vector<ExactSegment>& segments() const { return segs_; }
  const util::Rational& last_breakpoint() const { return segs_.back().x; }

  /// f(t). Requires t >= 0.
  ExtRat value(const util::Rational& t) const;
  /// lim_{s -> t+} f(s).
  ExtRat value_right(const util::Rational& t) const;
  /// lim_{s -> t-} f(s) for t > 0; value(0) at 0.
  ExtRat value_left(const util::Rational& t) const;

  /// f at t and both one-sided limits, as limits() returns them.
  struct Limits {
    ExtRat value;  ///< value(t)
    ExtRat right;  ///< value_right(t)
    ExtRat left;   ///< value_left(t)
    /// segment_index(t): the segment whose slope holds just right of t.
    std::size_t segment = 0;
  };
  /// value(t), value_right(t) and value_left(t) after one segment lookup,
  /// equal to the three calls in value and in representation. Inside a
  /// segment the three are one number, computed once; at a breakpoint the
  /// value and the right limit are the stored ones, and only the left
  /// limit takes arithmetic.
  Limits limits(const util::Rational& t) const;

  /// Lower pseudo-inverse: inf{ t >= 0 : f(t) >= y } (ExtRat::infinity()
  /// when f never reaches y). For y = +inf this is inf_start().
  ExtRat lower_inverse(const ExtRat& y) const;
  /// Upper pseudo-inverse: inf{ t >= 0 : f(t) > y }. For y = +inf this is
  /// inf_start() (used by the delay check, where the demand "alpha = +inf"
  /// is met exactly where f reaches +inf).
  ExtRat upper_inverse(const ExtRat& y) const;

  /// Slope of the curve beyond the last breakpoint; +inf when the curve
  /// reaches +inf.
  ExtRat tail_slope() const;
  /// inf{ t : f is +inf at or immediately after t }; infinity() when the
  /// curve is finite everywhere.
  ExtRat inf_start() const;
  bool finite_everywhere() const { return !segs_.back().value_after.is_inf(); }

 private:
  /// Index of the last segment starting at or before t. value() and
  /// value_right() look it up per call; limits() finds it together with
  /// value_left()'s segment in one scan, for callers that need several of
  /// the three at the same t.
  std::size_t segment_index(const util::Rational& t) const;

  std::vector<ExactSegment> segs_;
};

/// Result of an exact deviation computation. When `infinite`, the bound
/// definitionally diverges; otherwise `value` is the exact supremum
/// (clamped below at 0) and `witness` is a time achieving it.
struct ExactBound {
  bool infinite = false;
  util::Rational value;
  util::Rational witness;
};

/// The exact forms of the curves one certify call works on, and the
/// deviations computed between them. Each distinct curve is converted on
/// first use; a curve met again (the delay and the backlog certificate of
/// one pair, the checker after the emitter) is looked up by equality
/// instead. Each deviation is computed on first use too, so an
/// emit-then-check call enumerates every supremum once: the checker audits
/// the claim, its rounding and its witness against the value the emitter
/// computed. A standalone check starts from an empty table and recomputes
/// everything. References stay valid while the table lives, and a table
/// lives for one call.
class ExactCurveTable {
 public:
  ExactCurveTable() = default;
  /// Deviation keys are addresses of this table's curves.
  ExactCurveTable(const ExactCurveTable&) = delete;
  ExactCurveTable& operator=(const ExactCurveTable&) = delete;

  /// ExactCurve::from(c), converted at most once per table.
  const ExactCurve& get(const minplus::Curve& c);

  /// The exact deviation of `kind` (horizontal for kDelay, vertical for
  /// kBacklog) of f against g, computed at most once per table. f and g
  /// must be curves get() returned from this table: a curve's address is
  /// its identity, and equal curves share one entry.
  const ExactBound& deviation(BoundKind kind, const ExactCurve& f,
                              const ExactCurve& g);

 private:
  struct Entry {
    std::vector<minplus::Segment> segments;
    ExactCurve exact;
  };
  std::deque<Entry> entries_;  ///< a deque keeps references stable
  std::map<std::tuple<BoundKind, const ExactCurve*, const ExactCurve*>,
           ExactBound>
      deviations_;
};

/// Pointwise deviation at one candidate time (used both to build the
/// supremum and to audit a certificate's recorded witness).
struct PointDev {
  bool defined = false;  ///< false when the difference is -inf everywhere
  bool infinite = false;
  util::Rational value;
};

/// max over the value/right-limit/left-limit variants of f - g at t.
PointDev exact_vertical_dev_at(const ExactCurve& f, const ExactCurve& g,
                               const util::Rational& t);
/// inf{ d >= 0 : f <= g(.+d) } demanded at t (value, right limit, and the
/// strict right-rise variant), per the kernel's definitional reading.
PointDev exact_horizontal_dev_at(const ExactCurve& f, const ExactCurve& g,
                                 const util::Rational& t);

/// sup_t [ f(t) - g(t) ], exact. Definitional backlog bound for f = alpha,
/// g = beta.
ExactBound exact_vertical_deviation(const ExactCurve& f, const ExactCurve& g);
/// sup_t inf{ d : f(t) <= g(t+d) }, exact. Definitional delay bound.
ExactBound exact_horizontal_deviation(const ExactCurve& f,
                                      const ExactCurve& g);

}  // namespace streamcalc::certify
