// Tolerant pointwise comparison of piecewise-linear curves, for property
// assertions.
//
// Exact segment equality (Curve::operator==, or bit_diff on the bit
// patterns) is the right notion for bit-identity contracts (parallel ==
// serial, traced == untraced), but
// algebraic-law checks compare results of *different* computation orders —
// e.g. conv(conv(f,g),h) against conv(f,conv(g,h)) — whose breakpoints
// carry different rounding noise. These helpers compare curves by value at
// a deterministic set of probe times (every breakpoint of both curves,
// interval midpoints, and points past the last breakpoint), at both the
// point value and the right limit, under a relative-plus-absolute
// tolerance. Infinities compare equal only to infinities.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "minplus/curve.hpp"
#include "streamsim/pipeline_sim.hpp"

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

/// Empty when `a` and `b` carry identical IEEE-754 bit patterns in every
/// segment field; otherwise names the first difference. Stricter than
/// Curve::operator==, which compares doubles (0.0 == -0.0).
std::string bit_diff(const minplus::Curve& a, const minplus::Curve& b);

/// Empty when every SimResult field of `a` and `b` is identical, doubles
/// bit for bit: throughput, delays, max backlog, delivered count, all
/// three traces and every node's name, jobs and utilization. Otherwise
/// names the first difference.
std::string bit_diff(const streamsim::SimResult& a,
                     const streamsim::SimResult& b);

/// The names of the SimResult fields in which `a` and `b` differ, in
/// declaration order ("throughput" .. "packets_delivered", the three
/// traces, "node_stats"); empty when bit_diff is.
std::vector<std::string> differing_fields(const streamsim::SimResult& a,
                                          const streamsim::SimResult& b);

/// FNV-1a digest of every SimResult field bit_diff compares, doubles by
/// their bit patterns: equal results have equal digests, and a pin of the
/// digest fails on any changed bit.
std::uint64_t bit_digest(const streamsim::SimResult& r);

inline bool approx_equal(const minplus::Curve& a, const minplus::Curve& b,
                         double rtol = 1e-9, double atol = 1e-9) {
  return !first_gap(a, b, rtol, atol).has_value();
}

inline bool approx_leq(const minplus::Curve& a, const minplus::Curve& b,
                       double rtol = 1e-9, double atol = 1e-9) {
  return !first_above(a, b, rtol, atol).has_value();
}

}  // namespace streamcalc::testing
