// Tolerant pointwise comparison of piecewise-linear curves, for property
// assertions.
//
// Exact segment equality (Curve::operator==) is the right notion for
// bit-identity contracts (parallel == serial, traced == untraced), but
// algebraic-law checks compare results of *different* computation orders —
// e.g. conv(conv(f,g),h) against conv(f,conv(g,h)) — whose breakpoints
// carry different rounding noise. These helpers compare curves by value at
// a deterministic set of probe times (every breakpoint of both curves,
// interval midpoints, and points past the last breakpoint), at both the
// point value and the right limit, under a relative-plus-absolute
// tolerance. Infinities compare equal only to infinities.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "minplus/curve.hpp"

namespace streamcalc::testing {

/// One probe where curves a and b disagree (or violate an ordering).
struct CurveGap {
  double t = 0.0;
  double a_value = 0.0;
  double b_value = 0.0;
  bool right_limit = false;  ///< gap at lim_{s->t+} rather than at f(t)
};

/// Human-readable "a(t)=..., b(t)=..." line for a failure message.
std::string gap_str(const CurveGap& gap);

/// Deterministic probe times covering both curves: all breakpoints,
/// midpoints of consecutive breakpoint intervals, and a few points beyond
/// the last breakpoint (where both curves are affine).
std::vector<double> probe_times(const minplus::Curve& a,
                                const minplus::Curve& b);

/// First probe where |a - b| > atol + rtol * max(|a|, |b|), checking both
/// the value and the right limit; nullopt if none.
std::optional<CurveGap> first_gap(const minplus::Curve& a,
                                  const minplus::Curve& b,
                                  double rtol = 1e-9, double atol = 1e-9);

/// First probe where a > b + tolerance (i.e. a violation of a <= b
/// pointwise); nullopt if a <= b everywhere probed.
std::optional<CurveGap> first_above(const minplus::Curve& a,
                                    const minplus::Curve& b,
                                    double rtol = 1e-9, double atol = 1e-9);

inline bool approx_equal(const minplus::Curve& a, const minplus::Curve& b,
                         double rtol = 1e-9, double atol = 1e-9) {
  return !first_gap(a, b, rtol, atol).has_value();
}

inline bool approx_leq(const minplus::Curve& a, const minplus::Curve& b,
                       double rtol = 1e-9, double atol = 1e-9) {
  return !first_above(a, b, rtol, atol).has_value();
}

}  // namespace streamcalc::testing
