// Piecewise-linear wide-sense-increasing curves on [0, +inf).
//
// This is the numeric foundation of the network calculus layer. A Curve
// represents a function f : [0, inf) -> [0, inf] that is
//
//   * piecewise linear with finitely many breakpoints,
//   * wide-sense increasing (upward jumps at breakpoints are allowed —
//     needed for leaky-bucket arrival curves, which jump from f(0) = 0 to a
//     burst b immediately after 0),
//   * eventually affine (the last segment's slope extends to +inf), and
//   * possibly +inf from some point on (needed for the burst-delay curve
//     delta_T, the identity of min-plus convolution).
//
// Representation follows the RTC/Nancy convention: each breakpoint carries
// both the value *at* the point and the right limit *after* it, so jump
// discontinuities are represented exactly rather than approximated:
//
//   f(t) = value_at                                  if t == x_i
//   f(t) = value_after + slope * (t - x_i)           if x_i < t < x_{i+1}
//
// add, minimum, maximum and subtract_clamped are segment arithmetic: one
// sweep over both operands' breakpoints (detail/merge.hpp) computes each
// result piece from the operand pieces, with one rounding per value and no
// probes. The general convolution and deconvolution fold shifted operand
// copies on the same merge, and take their point values from the
// operands' point and one-sided values. Tests validate every operation
// against brute-force evaluation.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace streamcalc::minplus {

/// One breakpoint of a piecewise-linear curve; see file comment for
/// semantics. Values may be +inf (never -inf, never NaN).
struct Segment {
  double x = 0.0;            ///< Start abscissa of the segment.
  double value_at = 0.0;     ///< f(x).
  double value_after = 0.0;  ///< lim_{t -> x+} f(t).
  double slope = 0.0;        ///< Slope on the open interval (x, next.x).

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Structural classification of a curve, computed once at construction and
/// cached. The flags gate the specialized min-plus kernels.
struct ShapeInfo {
  bool convex = false;               ///< see Curve::is_convex()
  bool concave_from_origin = false;  ///< see Curve::is_concave_from_origin()
};

/// A piecewise-linear, wide-sense-increasing curve on [0, inf).
class Curve {
 public:
  /// The identically-zero curve.
  Curve();

  /// Builds a curve from explicit segments. Requirements (else throws
  /// PreconditionError): non-empty; segs[0].x == 0; x strictly increasing;
  /// all values finite-or-+inf, non-negative; wide-sense increasing
  /// (value_at <= value_after, slope >= 0, and each breakpoint's value_at is
  /// >= the left limit of the previous segment); once a value is +inf the
  /// curve stays +inf.
  explicit Curve(std::vector<Segment> segments);

  // --- Named constructors for the standard curve families ----------------

  /// f(t) = 0.
  static Curve zero();

  /// f(t) = c for t > 0, f(0) = 0 (the "burst only" curve).
  static Curve constant(double c);

  /// Leaky-bucket / affine arrival curve: f(0) = 0, f(t) = burst + rate*t
  /// for t > 0. Requires rate >= 0, burst >= 0.
  static Curve affine(double rate, double burst);

  /// Rate-latency service curve: f(t) = max(0, rate * (t - latency)).
  /// Requires rate >= 0, latency >= 0.
  static Curve rate_latency(double rate, double latency);

  /// Pure rate: f(t) = rate * t.
  static Curve rate(double rate);

  /// Burst-delay curve delta_T: 0 on [0, T], +inf after. delta(0) is the
  /// identity of min-plus convolution.
  static Curve delta(double latency);

  /// Step of height h at time `at` (> 0): 0 on [0, at], h after.
  static Curve step(double height, double at);

  /// Staircase curve: f(t) = height * ceil((t - latency) / period) clamped
  /// below at 0 — the cumulative curve of a packetized flow emitting
  /// `height` bytes every `period` seconds after `latency`. The staircase is
  /// materialized for `steps` periods and continues with its average slope
  /// (height/period) afterwards, staying a lower bound of the true infinite
  /// staircase's upper envelope. Requires steps >= 1.
  static Curve staircase(double height, double period, double latency,
                         int steps);

  // --- Unit-aware conveniences used by the netcalc layer ------------------

  /// affine() with typed units: f in bytes over seconds.
  static Curve affine(util::DataRate rate, util::DataSize burst);
  /// rate_latency() with typed units.
  static Curve rate_latency(util::DataRate rate, util::Duration latency);

  // --- Evaluation ----------------------------------------------------------

  /// f(t). Requires t >= 0.
  double value(double t) const;
  /// lim_{s -> t+} f(s). Requires t >= 0.
  double value_right(double t) const;
  /// lim_{s -> t-} f(s) for t > 0; value(0) for t == 0.
  double value_left(double t) const;

  /// Lower pseudo-inverse: inf{ t >= 0 : f(t) >= y }. Returns +inf when f
  /// never reaches y. Requires y >= 0.
  double lower_inverse(double y) const;

  /// Upper pseudo-inverse: inf{ t >= 0 : f(t) > y } (equivalently the end
  /// of the plateau at level y). Returns +inf when f never exceeds y.
  /// Requires y >= 0.
  double upper_inverse(double y) const;

  // --- Structure -----------------------------------------------------------

  const std::vector<Segment>& segments() const { return segs_; }

  /// Abscissa of the last breakpoint (the curve is affine from here on).
  double last_breakpoint() const { return segs_.back().x; }

  /// Slope of the final (infinite) segment; +inf if the curve reaches +inf.
  double tail_slope() const;

  /// The value f would have at t if extended affinely from its last
  /// breakpoint — i.e. exact evaluation for t >= last_breakpoint().
  bool is_finite() const;  ///< True if f(t) < inf for all finite t.

  /// True if the curve is continuous on (0, inf) and its slopes are
  /// non-decreasing (a convex function; a final jump to +inf is allowed,
  /// so delta_T counts as convex). Cached at construction.
  bool is_convex() const { return shape_.convex; }

  /// True if f(0) == 0 and f is concave on (0, inf) (an initial jump at 0 is
  /// allowed): the class of "good" arrival curves for which
  /// f (x) g = min(f, g) under min-plus convolution. Cached at construction.
  bool is_concave_from_origin() const { return shape_.concave_from_origin; }

  /// Cached structural classification (computed once at construction).
  const ShapeInfo& shape() const { return shape_; }

  /// True if f(t) == 0 for all t.
  bool is_zero() const;

  // --- Pointwise transforms (exact) ---------------------------------------

  /// c * f (vertical scaling). Requires c >= 0.
  Curve scale_value(double c) const;
  /// f(t / c) (horizontal scaling). Requires c > 0.
  Curve scale_time(double c) const;
  /// t -> f(t - T) extended by 0 on [0, T): shift right. Requires T >= 0.
  Curve shift_right(double T) const;
  /// t -> f(t + T): shift left (the part of f before T is discarded).
  /// Requires T >= 0.
  Curve shift_left(double T) const;
  /// f + h * 1_{t > 0}: adds a step at 0 (the packetizer's arrival-curve
  /// adjustment). Requires h >= 0.
  Curve plus_step(double h) const;
  /// [f - c]^+ : max(f - c, 0) (the packetizer's service-curve adjustment).
  /// Requires c >= 0.
  Curve minus_clamped(double c) const;

  /// Human-readable description, e.g. "affine(rate=3, burst=2)" falls back
  /// to a breakpoint listing for general curves.
  std::string describe() const;

  /// Equality is structural on the (normalized) segment list; the cached
  /// ShapeInfo is derived from it and deliberately excluded.
  friend bool operator==(const Curve& a, const Curve& b) {
    return a.segs_ == b.segs_;
  }

 private:
  /// Index of the segment containing t (last segment with x <= t).
  std::size_t segment_index(double t) const;
  void validate() const;
  void normalize();
  void compute_shape();

  std::vector<Segment> segs_;
  ShapeInfo shape_;
};

}  // namespace streamcalc::minplus
