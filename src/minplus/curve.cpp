#include "minplus/curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "minplus/detail/builder.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace streamcalc::minplus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// a + b where either may be +inf (never produces NaN for our inputs).
double add(double a, double b) {
  if (a == kInf || b == kInf) return kInf;
  return a + b;
}

/// Linear extension value_after + slope * dt, +inf-aware. dt >= 0.
double extend(double value_after, double slope, double dt) {
  if (value_after == kInf) return kInf;
  return value_after + slope * dt;
}

bool valid_value(double v) { return !std::isnan(v) && v >= 0.0; }

/// Full-precision point values of piece `i`, for validation diagnostics:
/// a rejected curve is only debuggable if the message pinpoints the piece
/// and reproduces the exact numbers that broke the invariant.
std::string piece_str(const std::vector<Segment>& segs, std::size_t i) {
  const Segment& s = segs[i];
  std::ostringstream os;
  os << "piece " << i << " of " << segs.size() << ": {x="
     << util::format_significant(s.x, 17)
     << ", value_at=" << util::format_significant(s.value_at, 17)
     << ", value_after=" << util::format_significant(s.value_after, 17)
     << ", slope=" << util::format_significant(s.slope, 17) << "}";
  return os.str();
}

/// Relative closeness used for structural classification and segment
/// merging (values synthesized by chained operations carry rounding noise).
bool nearly_equal(double a, double b) {
  if (a == kInf || b == kInf) return a == b;
  return std::fabs(a - b) <=
         1e-9 * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

}  // namespace

Curve::Curve() : segs_{Segment{0.0, 0.0, 0.0, 0.0}} { compute_shape(); }

Curve::Curve(std::vector<Segment> segments) : segs_(std::move(segments)) {
  validate();
  normalize();
  compute_shape();
}

void Curve::validate() const {
  // Error messages are built lazily: this runs on every construction, and
  // the formatting (ostringstream per piece) costs orders of magnitude
  // more than the checks themselves. Eagerly-built messages used to
  // dominate the entire min-plus engine's profile.
  util::require(!segs_.empty(), "Curve requires at least one segment");
  if (segs_.front().x != 0.0) {
    util::require(false,
                  "Curve must start at x = 0 (" + piece_str(segs_, 0) + ")");
  }
  bool seen_inf = false;
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const Segment& s = segs_[i];
    if (!(!std::isnan(s.x) && std::isfinite(s.x) && s.x >= 0.0)) {
      util::require(false, "Curve breakpoint x must be finite and >= 0 (" +
                               piece_str(segs_, i) + ")");
    }
    if (!(valid_value(s.value_at) && valid_value(s.value_after))) {
      util::require(false, "Curve values must be >= 0 and not NaN (" +
                               piece_str(segs_, i) + ")");
    }
    if (!(std::isfinite(s.slope) && s.slope >= 0.0)) {
      util::require(false,
                    "Curve slopes must be finite and >= 0 (+inf is expressed "
                    "through values, not slopes) (" +
                        piece_str(segs_, i) + ")");
    }
    if (!(s.value_at <= s.value_after)) {
      util::require(false,
                    "Curve jumps must be upward (value_at <= value_after) (" +
                        piece_str(segs_, i) + ")");
    }
    if (i > 0) {
      const Segment& p = segs_[i - 1];
      if (!(s.x > p.x)) {
        util::require(false, "Curve breakpoints must be strictly increasing (" +
                                 piece_str(segs_, i - 1) + "; " +
                                 piece_str(segs_, i) + ")");
      }
      const double left_limit = extend(p.value_after, p.slope, s.x - p.x);
      if (!(s.value_at >= left_limit - 1e-9 * (1.0 + left_limit) ||
            left_limit == kInf)) {
        util::require(
            false,
            "Curve must be wide-sense increasing across breakpoints "
            "(left limit " +
                util::format_significant(left_limit, 17) + " from " +
                piece_str(segs_, i - 1) + " exceeds " + piece_str(segs_, i) +
                ")");
      }
      if (!(left_limit != kInf || s.value_at == kInf)) {
        util::require(false, "Curve cannot return from +inf (" +
                                 piece_str(segs_, i) + ")");
      }
    }
    if (seen_inf && s.value_at != kInf) {
      util::require(false, "Curve cannot return from +inf (" +
                               piece_str(segs_, i) + ")");
    }
    if (s.value_at == kInf && s.value_after != kInf) {
      util::require(false, "Curve cannot return from +inf (" +
                               piece_str(segs_, i) + ")");
    }
    if (s.value_after == kInf) seen_inf = true;
  }
}

void Curve::normalize() {
  // Canonicalize: an infinite segment carries slope 0, and breakpoints that
  // merely continue the previous segment are merged away. The merge uses a
  // small relative tolerance: chained min-plus operations synthesize
  // breakpoints whose values and slopes carry rounding noise (catastrophic
  // cancellation in slope recovery), and exact-equality merging would let
  // segment counts grow exponentially through model pipelines.
  const auto close = [](double a, double b) { return nearly_equal(a, b); };
  for (Segment& s : segs_) {
    if (s.value_after == kInf) s.slope = 0.0;
  }
  std::vector<Segment> out;
  out.reserve(segs_.size());
  out.push_back(segs_.front());
  for (std::size_t i = 1; i < segs_.size(); ++i) {
    const Segment& s = segs_[i];
    Segment& p = out.back();
    const double left_limit = extend(p.value_after, p.slope, s.x - p.x);
    // Slopes "continue" when equal within tolerance, or when the slope
    // mismatch integrated over this segment's span is value-negligible
    // (absorbing micro-slope noise pieces left behind by chained
    // operations, whose spurious far-field crossings otherwise compound).
    bool slope_continues = close(s.slope, p.slope);
    if (!slope_continues && i + 1 < segs_.size() && s.value_at != kInf) {
      const double span = segs_[i + 1].x - s.x;
      slope_continues = std::fabs(s.slope - p.slope) * span <=
                        1e-9 * (1.0 + std::fabs(s.value_at));
    }
    const bool continues = close(s.value_at, left_limit) &&
                           close(s.value_after, s.value_at) &&
                           slope_continues;
    if (!continues) {
      Segment kept = s;
      // Keep evaluation monotone when the previous extension overshoots
      // this breakpoint's value by rounding noise.
      if (left_limit != kInf && kept.value_at < left_limit &&
          close(kept.value_at, left_limit)) {
        kept.value_at = left_limit;
        kept.value_after = std::max(kept.value_after, kept.value_at);
      }
      out.push_back(kept);
    }
  }
  segs_ = std::move(out);
}

Curve Curve::zero() { return Curve(); }

Curve Curve::constant(double c) {
  util::require(valid_value(c), "constant() requires c >= 0");
  return Curve({Segment{0.0, 0.0, c, 0.0}});
}

Curve Curve::affine(double rate_, double burst) {
  util::require(rate_ >= 0.0 && std::isfinite(rate_),
                "affine() requires finite rate >= 0");
  util::require(valid_value(burst), "affine() requires burst >= 0");
  return Curve({Segment{0.0, 0.0, burst, rate_}});
}

Curve Curve::rate_latency(double rate_, double latency) {
  util::require(rate_ >= 0.0 && std::isfinite(rate_),
                "rate_latency() requires finite rate >= 0");
  util::require(latency >= 0.0 && std::isfinite(latency),
                "rate_latency() requires finite latency >= 0");
  if (latency == 0.0) return rate(rate_);
  return Curve(
      {Segment{0.0, 0.0, 0.0, 0.0}, Segment{latency, 0.0, 0.0, rate_}});
}

Curve Curve::rate(double rate_) {
  util::require(rate_ >= 0.0 && std::isfinite(rate_),
                "rate() requires finite rate >= 0");
  return Curve({Segment{0.0, 0.0, 0.0, rate_}});
}

Curve Curve::delta(double latency) {
  util::require(latency >= 0.0 && std::isfinite(latency),
                "delta() requires finite latency >= 0");
  if (latency == 0.0) return Curve({Segment{0.0, 0.0, kInf, 0.0}});
  return Curve(
      {Segment{0.0, 0.0, 0.0, 0.0}, Segment{latency, 0.0, kInf, 0.0}});
}

Curve Curve::step(double height, double at) {
  util::require(valid_value(height), "step() requires height >= 0");
  util::require(at > 0.0 && std::isfinite(at), "step() requires at > 0");
  return Curve({Segment{0.0, 0.0, 0.0, 0.0}, Segment{at, 0.0, height, 0.0}});
}

Curve Curve::staircase(double height, double period, double latency,
                       int steps) {
  util::require(height >= 0.0 && std::isfinite(height),
                "staircase() requires finite height >= 0");
  util::require(period > 0.0 && std::isfinite(period),
                "staircase() requires finite period > 0");
  util::require(latency >= 0.0 && std::isfinite(latency),
                "staircase() requires finite latency >= 0");
  util::require(steps >= 1, "staircase() requires steps >= 1");
  std::vector<Segment> segs;
  if (latency > 0.0) segs.push_back(Segment{0.0, 0.0, 0.0, 0.0});
  // Step k completes at latency + k*period; the value on
  // (latency + k*period, latency + (k+1)*period] is (k+1)*height: we model
  // the k-th riser as an upward jump at its period boundary.
  for (int k = 0; k < steps; ++k) {
    const double x = latency + static_cast<double>(k) * period;
    const double level = static_cast<double>(k) * height;
    segs.push_back(Segment{x, level, level + height, 0.0});
  }
  // Continue with the long-run average slope after the materialized steps.
  const double x_tail = latency + static_cast<double>(steps) * period;
  const double level_tail = static_cast<double>(steps) * height;
  segs.push_back(Segment{x_tail, level_tail, level_tail, height / period});
  if (segs.front().x != 0.0) {
    segs.insert(segs.begin(), Segment{0.0, 0.0, 0.0, 0.0});
  }
  return Curve(std::move(segs));
}

Curve Curve::affine(util::DataRate r, util::DataSize burst) {
  return affine(r.in_bytes_per_sec(), burst.in_bytes());
}

Curve Curve::rate_latency(util::DataRate r, util::Duration latency) {
  return rate_latency(r.in_bytes_per_sec(), latency.in_seconds());
}

std::size_t Curve::segment_index(double t) const {
  util::require(t >= 0.0 && !std::isnan(t), "Curve evaluation requires t >= 0");
  // Last segment with x <= t.
  auto it = std::upper_bound(
      segs_.begin(), segs_.end(), t,
      [](double lhs, const Segment& s) { return lhs < s.x; });
  SC_ASSERT(it != segs_.begin());
  return static_cast<std::size_t>(it - segs_.begin()) - 1;
}

double Curve::value(double t) const {
  const Segment& s = segs_[segment_index(t)];
  if (t == s.x) return s.value_at;
  return extend(s.value_after, s.slope, t - s.x);
}

double Curve::value_right(double t) const {
  const Segment& s = segs_[segment_index(t)];
  if (t == s.x) return s.value_after;
  return extend(s.value_after, s.slope, t - s.x);
}

double Curve::value_left(double t) const {
  if (t == 0.0) return segs_.front().value_at;
  const std::size_t i = segment_index(t);
  const Segment& s = segs_[i];
  if (t > s.x) return extend(s.value_after, s.slope, t - s.x);
  // t sits exactly on breakpoint i (> 0): the left limit comes from the
  // previous segment's extension.
  SC_ASSERT(i > 0);
  const Segment& p = segs_[i - 1];
  return extend(p.value_after, p.slope, t - p.x);
}

double Curve::lower_inverse(double y) const {
  util::require(valid_value(y), "lower_inverse() requires y >= 0");
  if (y <= segs_.front().value_at) return 0.0;
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const Segment& s = segs_[i];
    if (s.value_at >= y) return s.x;
    if (s.value_after >= y) return s.x;  // the jump crosses y; inf is at x
    const double next_x =
        (i + 1 < segs_.size()) ? segs_[i + 1].x : kInf;
    if (s.slope > 0.0) {
      const double t_hit = s.x + (y - s.value_after) / s.slope;
      if (t_hit < next_x ||
          (i + 1 == segs_.size() && std::isfinite(t_hit))) {
        return t_hit;
      }
    }
  }
  return kInf;
}

double Curve::upper_inverse(double y) const {
  util::require(valid_value(y), "upper_inverse() requires y >= 0");
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const Segment& s = segs_[i];
    if (s.value_after > y) return s.x;  // jump (or start value) exceeds y
    const double next_x = (i + 1 < segs_.size()) ? segs_[i + 1].x : kInf;
    if (s.slope > 0.0) {
      const double t_hit = s.x + (y - s.value_after) / s.slope;
      if (t_hit < next_x) return std::max(t_hit, s.x);
    }
  }
  return kInf;
}

double Curve::tail_slope() const {
  const Segment& s = segs_.back();
  if (s.value_after == kInf) return kInf;
  return s.slope;
}

bool Curve::is_finite() const {
  return segs_.back().value_after != kInf;  // inf persists once reached
}

namespace {

bool segs_convex(const std::vector<Segment>& segs) {
  double prev_slope = -1.0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Segment& s = segs[i];
    if (s.value_at == kInf) break;  // a final jump to +inf stays convex
    const bool last_and_infinite =
        s.value_after == kInf && i + 1 == segs.size();
    if (!nearly_equal(s.value_at, s.value_after) && !last_and_infinite) {
      return false;  // interior jump
    }
    if (i > 0) {
      const Segment& p = segs[i - 1];
      const double left_limit = extend(p.value_after, p.slope, s.x - p.x);
      if (!nearly_equal(s.value_at, left_limit)) {
        return false;  // jump across breakpoint
      }
    }
    if (!last_and_infinite) {
      if (s.slope < prev_slope && !nearly_equal(s.slope, prev_slope)) {
        return false;
      }
      prev_slope = s.slope;
    }
  }
  return true;
}

bool segs_concave_from_origin(const std::vector<Segment>& segs) {
  if (segs.front().value_at != 0.0) return false;
  if (segs.back().value_after == kInf) return false;
  double prev_slope = kInf;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Segment& s = segs[i];
    // Only the origin may jump.
    if (i > 0) {
      const Segment& p = segs[i - 1];
      const double left_limit = extend(p.value_after, p.slope, s.x - p.x);
      if (!nearly_equal(s.value_at, left_limit) ||
          !nearly_equal(s.value_at, s.value_after)) {
        return false;
      }
    }
    if (s.slope > prev_slope && !nearly_equal(s.slope, prev_slope)) {
      return false;
    }
    prev_slope = s.slope;
  }
  return true;
}

}  // namespace

void Curve::compute_shape() {
  shape_.convex = segs_convex(segs_);
  shape_.concave_from_origin = segs_concave_from_origin(segs_);
}

bool Curve::is_zero() const {
  return segs_.size() == 1 && segs_.front() == Segment{0.0, 0.0, 0.0, 0.0};
}

Curve Curve::scale_value(double c) const {
  util::require(c >= 0.0 && std::isfinite(c),
                "scale_value() requires finite c >= 0");
  if (c == 0.0) return zero();
  std::vector<Segment> out = segs_;
  for (Segment& s : out) {
    s.value_at = s.value_at == kInf ? kInf : s.value_at * c;
    s.value_after = s.value_after == kInf ? kInf : s.value_after * c;
    s.slope *= c;
  }
  return Curve(std::move(out));
}

Curve Curve::scale_time(double c) const {
  util::require(c > 0.0 && std::isfinite(c),
                "scale_time() requires finite c > 0");
  std::vector<Segment> out = segs_;
  for (Segment& s : out) {
    s.x *= c;
    s.slope /= c;
  }
  return Curve(std::move(out));
}

Curve Curve::shift_right(double T) const {
  util::require(T >= 0.0 && std::isfinite(T),
                "shift_right() requires finite T >= 0");
  if (T == 0.0) return *this;
  std::vector<Segment> out;
  out.reserve(segs_.size() + 1);
  // On [0, T) the shifted curve is 0; at T it takes f(0).
  out.push_back(Segment{0.0, 0.0, 0.0, 0.0});
  for (const Segment& s : segs_) {
    out.push_back(Segment{s.x + T, s.value_at, s.value_after, s.slope});
  }
  // Seam: value at T is f(0) = segs_[0].value_at, which must be >= 0 — fine.
  // Each x + T rounds independently, perturbing gaps between close
  // breakpoints; restore slope consistency.
  detail::rechord_translated(out);
  return Curve(std::move(out));
}

Curve Curve::shift_left(double T) const {
  util::require(T >= 0.0 && std::isfinite(T),
                "shift_left() requires finite T >= 0");
  if (T == 0.0) return *this;
  std::vector<Segment> out;
  const std::size_t i0 = segment_index(T);
  const Segment& s0 = segs_[i0];
  // The new origin sits inside (or at the start of) segment i0.
  if (T == s0.x) {
    out.push_back(Segment{0.0, s0.value_at, s0.value_after, s0.slope});
  } else {
    const double v = extend(s0.value_after, s0.slope, T - s0.x);
    out.push_back(Segment{0.0, v, v, s0.slope});
  }
  for (std::size_t i = i0 + 1; i < segs_.size(); ++i) {
    const Segment& s = segs_[i];
    const Segment& p = segs_[i - 1];
    const double x = s.x - T;
    const double at = detail::translated_value(
        s.x, -T, x, extend(p.value_after, p.slope, s.x - p.x), s.value_at,
        s.value_after);
    out.push_back(Segment{x, at, s.value_after, s.slope});
  }
  detail::rechord_translated(out);
  return Curve(std::move(out));
}

Curve Curve::plus_step(double h) const {
  util::require(valid_value(h) && std::isfinite(h),
                "plus_step() requires finite h >= 0");
  if (h == 0.0) return *this;
  std::vector<Segment> out = segs_;
  for (std::size_t i = 0; i < out.size(); ++i) {
    Segment& s = out[i];
    if (i > 0) s.value_at = add(s.value_at, h);
    s.value_after = add(s.value_after, h);
  }
  return Curve(std::move(out));
}

Curve Curve::minus_clamped(double c) const {
  util::require(valid_value(c) && std::isfinite(c),
                "minus_clamped() requires finite c >= 0");
  if (c == 0.0) return *this;
  std::vector<Segment> out;
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const Segment& s = segs_[i];
    const double next_x = (i + 1 < segs_.size()) ? segs_[i + 1].x : kInf;
    const double at = s.value_at == kInf ? kInf : std::max(0.0, s.value_at - c);
    const double after =
        s.value_after == kInf ? kInf : std::max(0.0, s.value_after - c);
    if (s.value_after >= c || s.value_after == kInf) {
      out.push_back(Segment{s.x, at, after, s.slope});
      continue;
    }
    // The segment starts below the clamp; find where (if at all) it crosses.
    if (s.slope == 0.0) {
      out.push_back(Segment{s.x, at, 0.0, 0.0});
      continue;
    }
    const double t_cross = s.x + (c - s.value_after) / s.slope;
    if (t_cross >= next_x) {
      out.push_back(Segment{s.x, at, 0.0, 0.0});
      continue;
    }
    out.push_back(Segment{s.x, at, 0.0, 0.0});
    if (t_cross > s.x) {
      out.push_back(Segment{t_cross, 0.0, 0.0, s.slope});
    } else {
      // Crossing exactly at the breakpoint: fold into the first piece.
      out.back().slope = s.slope;
    }
  }
  return Curve(std::move(out));
}

std::string Curve::describe() const {
  using util::format_significant;
  if (is_zero()) return "zero";
  if (segs_.size() == 1) {
    const Segment& s = segs_.front();
    if (s.value_at == 0.0 && s.value_after == kInf) return "delta(0)";
    if (s.value_at == 0.0 && s.value_after == 0.0) {
      return "rate(" + format_significant(s.slope) + ")";
    }
    if (s.value_at == 0.0) {
      return "affine(rate=" + format_significant(s.slope) +
             ", burst=" + format_significant(s.value_after) + ")";
    }
  }
  if (segs_.size() == 2 && segs_[0] == Segment{0.0, 0.0, 0.0, 0.0}) {
    const Segment& s = segs_[1];
    if (s.value_at == 0.0 && s.value_after == kInf) {
      return "delta(" + format_significant(s.x) + ")";
    }
    if (s.value_at == 0.0 && s.value_after == 0.0) {
      return "rate_latency(rate=" + format_significant(s.slope) +
             ", latency=" + format_significant(s.x) + ")";
    }
  }
  std::ostringstream os;
  os << "pl[";
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const Segment& s = segs_[i];
    if (i) os << "; ";
    os << "(x=" << format_significant(s.x)
       << ", f=" << format_significant(s.value_at)
       << ", f+=" << format_significant(s.value_after)
       << ", m=" << format_significant(s.slope) << ")";
  }
  os << "]";
  return os.str();
}

}  // namespace streamcalc::minplus
