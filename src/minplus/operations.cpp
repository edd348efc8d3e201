#include "minplus/operations.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "minplus/detail/builder.hpp"
#include "minplus/detail/merge.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace streamcalc::minplus {

namespace {

using detail::kInf;

double add_inf(double a, double b) {
  if (a == kInf || b == kInf) return kInf;
  return a + b;
}

/// a - b for the deconvolution sup: +inf beats everything; a -inf
/// contribution (b == +inf with finite a) can never be the sup, and the
/// caller skips it by checking the return for NaN-free semantics here.
/// Returns -inf when b == +inf (and a finite) so max() ignores it.
double sub_inf(double a, double b) {
  if (a == kInf && b == kInf) return -kInf;  // undefined piece; ignore
  if (a == kInf) return kInf;
  if (b == kInf) return -kInf;
  return a - b;
}

/// The line of segment s extended to x >= s.x, +inf-aware.
double extend(const Segment& s, double x) {
  return s.value_after == kInf ? kInf : s.value_after + s.slope * (x - s.x);
}

/// Returns the latency T if the curve is exactly delta_T, else a negative
/// sentinel.
double pure_delay_latency(const Curve& c) {
  const auto& segs = c.segments();
  if (segs.size() == 1) {
    const Segment& s = segs.front();
    if (s.value_at == 0.0 && s.value_after == kInf) return 0.0;
    return -1.0;
  }
  if (segs.size() == 2 && segs[0] == Segment{0.0, 0.0, 0.0, 0.0}) {
    const Segment& s = segs[1];
    if (s.value_at == 0.0 && s.value_after == kInf) return s.x;
  }
  return -1.0;
}

/// Slope-sorted convolution of two finite convex curves.
Curve convolve_convex(const Curve& f, const Curve& g) {
  struct Piece {
    double slope;
    double length;  // kInf for the final segment
  };
  auto pieces_of = [](const Curve& c) {
    std::vector<Piece> ps;
    const auto& segs = c.segments();
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const double len =
          (i + 1 < segs.size()) ? segs[i + 1].x - segs[i].x : kInf;
      ps.push_back(Piece{segs[i].slope, len});
    }
    return ps;
  };
  std::vector<Piece> pieces = pieces_of(f);
  const std::vector<Piece> gp = pieces_of(g);
  pieces.insert(pieces.end(), gp.begin(), gp.end());
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) {
                     return a.slope < b.slope;
                   });

  std::vector<Segment> segs;
  double x = 0.0;
  double y = f.value(0.0) + g.value(0.0);
  for (const Piece& p : pieces) {
    if (segs.empty() || x > segs.back().x) {
      segs.push_back(Segment{x, y, y, p.slope});
    } else {
      // The previous piece's width rounded away at this magnitude; the
      // region belongs to this piece's slope.
      segs.back().slope = p.slope;
    }
    if (p.length == kInf) break;  // all later pieces are steeper; unused
    x += p.length;
    y += p.slope * p.length;
  }
  return Curve(std::move(segs));
}

/// t -> c + g(t) (also lifting the origin value). c may be +inf.
Curve plus_const(const Curve& g, double c) {
  if (c == kInf) {
    return Curve({Segment{0.0, kInf, kInf, 0.0}});
  }
  std::vector<Segment> out = g.segments();
  for (Segment& s : out) {
    s.value_at = add_inf(s.value_at, c);
    s.value_after = add_inf(s.value_after, c);
  }
  return Curve(std::move(out));
}

/// Branch of the convolution infimum anchored at split point s = T with
/// f-contribution c: exactly c + g(t - T) for t >= T, and the safe plateau
/// c + g(0) on [0, T). (Safe because conv(t) <= f(t) + g(0) <= c + g(0)
/// there whenever c is a value f takes at or after t.)
Curve conv_branch(const Curve& g, double T, double c) {
  if (c == kInf) return plus_const(g, c);
  std::vector<Segment> out;
  const double plateau = add_inf(g.value(0.0), c);
  if (T > 0.0) out.push_back(Segment{0.0, plateau, plateau, 0.0});
  const std::vector<Segment>& gs = g.segments();
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const Segment& s = gs[i];
    const double x = s.x + T;
    if (!out.empty() && x <= out.back().x) continue;  // ulp collision
    const double at =
        i == 0 ? s.value_at
               : detail::translated_value(
                     s.x, T, x, extend(gs[i - 1], s.x), s.value_at,
                     s.value_after);
    out.push_back(
        Segment{x, add_inf(at, c), add_inf(s.value_after, c), s.slope});
  }
  detail::rechord_translated(out);
  return Curve(std::move(out));
}

/// Branch of the deconvolution supremum anchored at t + s = X with
/// f-contribution c: max(0, c - g(X - t)) on [0, X], constant after (safe
/// because deconv(t) >= f(t) - g(0) >= c - g(0) for t >= X). The caller
/// passes the copy of g whose point values the anchor's split reaches.
///
/// Built directly from g's segments. Re-evaluating g at fl(X - t) for a
/// candidate t = fl(X - x_j) rounds twice and can land an ulp past the
/// jump at x_j and miss the jump value; carrying g's exact values to the
/// reflected breakpoints avoids re-evaluation entirely.
Curve deconv_reflected_branch(const Curve& g, double X, double c) {
  const std::vector<Segment>& gs = g.segments();
  // Raw (unclamped) reflected breakpoints, ascending in t. t_j = X - x_j
  // reverses g's pieces: the slope right of t_j is the slope of g's piece
  // left of x_j, and the right limit in t is g's left limit in u.
  struct Raw {
    double t, at, after, slope;
  };
  std::vector<Raw> raw;
  raw.reserve(gs.size() + 1);
  std::size_t m = 0;  // last segment whose abscissa lies in [0, X]
  while (m + 1 < gs.size() && gs[m + 1].x <= X) ++m;
  {
    const double at = sub_inf(c, g.value(X));
    const double after = X > 0.0 ? sub_inf(c, g.value_left(X)) : at;
    double slope = 0.0;  // X == 0: the branch is constant
    if (X > gs[m].x) {
      slope = gs[m].slope;  // u = X - t starts inside segment m
    } else if (m > 0) {
      slope = gs[m - 1].slope;  // X == x_m: u immediately enters piece m-1
    }
    raw.push_back(Raw{0.0, at, after, slope});
  }
  for (std::size_t jj = m + 1; jj-- > 0;) {
    const Segment& sj = gs[jj];
    const double tj = X - sj.x;
    if (tj <= 0.0) continue;  // coincides with the start point
    // Reflected: t past X - x_j puts u = X - t short of x_j.
    const double left = jj > 0 ? g.value_left(sj.x) : sj.value_at;
    const double at = sub_inf(
        c, detail::translated_value(X, -sj.x, tj, sj.value_after,
                                    sj.value_at, left));
    double after, slope;
    if (jj > 0) {
      after = sub_inf(c, left);
      slope = gs[jj - 1].slope;
    } else {
      after = at;  // constant plateau past t = X
      slope = 0.0;
    }
    if (tj <= raw.back().t) {
      // Micro-gap breakpoints collapsed by abscissa rounding: merge.
      raw.back().after = std::max(raw.back().after, after);
      raw.back().slope = slope;
      continue;
    }
    raw.push_back(Raw{tj, at, after, slope});
  }
  // Clamp at 0. A piece whose raw line starts below zero stays flat at 0
  // up to the crossing and only then takes g's slope.
  std::vector<Segment> out;
  out.reserve(raw.size() + 1);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const Raw& r = raw[i];
    const double at = std::max(0.0, r.at);
    double slope = r.slope;
    if (r.after == kInf) slope = 0.0;
    if (r.after < 0.0) {
      out.push_back(Segment{r.t, at, 0.0, 0.0});
      if (std::isfinite(r.after) && slope > 0.0 && slope != kInf) {
        const double t_cross = r.t - r.after / slope;
        const double next_t = i + 1 < raw.size() ? raw[i + 1].t : kInf;
        if (t_cross > r.t && t_cross < next_t) {
          out.push_back(Segment{t_cross, 0.0, 0.0, slope});
        }
      }
      continue;
    }
    out.push_back(Segment{r.t, at, r.after, slope});
  }
  detail::rechord_translated(out);
  return Curve(std::move(out));
}

/// c with every point value replaced by its right limit: the values a
/// split approaching a breakpoint of the other operand from the left
/// sees.
Curve right_continuous(const Curve& c) {
  std::vector<Segment> segs = c.segments();
  for (Segment& s : segs) s.value_at = s.value_after;
  return Curve(std::move(segs));
}

/// c with every point value after the origin replaced by its left limit,
/// the extension of the piece before it (which a canonical curve never
/// exceeds there).
Curve left_continuous(const Curve& c) {
  std::vector<Segment> segs = c.segments();
  for (std::size_t i = 1; i < segs.size(); ++i) {
    segs[i].value_at = extend(segs[i - 1], segs[i].x);
  }
  return Curve(std::move(segs));
}

/// Branch descriptor for the convolution envelope: the branch curve is
/// c + shape(t - T) (with conv_branch's plateau before T).
struct ConvBranchDesc {
  const Curve* shape;
  double T;
  double c;
};

/// Anchor branches at every breakpoint x of `anchor`: its point value
/// against `shape`, and, where it differs, its left limit against
/// `shape_right`, the right-continuous copy of `shape`. A split s -> x-
/// pushes t - s above t - x, so the left limit meets the other operand's
/// right limits only.
void add_conv_anchors(std::vector<ConvBranchDesc>& descs, const Curve& anchor,
                      const Curve& shape, const Curve& shape_right) {
  for (const Segment& s : anchor.segments()) {
    descs.push_back(ConvBranchDesc{&shape, s.x, s.value_at});
    const double left = anchor.value_left(s.x);
    if (left != s.value_at) {
      descs.push_back(ConvBranchDesc{&shape_right, s.x, left});
    }
  }
}

/// Single-segment f = {0, a0, b0, m} against convex finite g:
///
///   (f (x) g)(t) = min(a0 + g(t), b0 + (rate_m (x) g)(t))
///
/// — the s = 0 split keeps f's origin value; every s > 0 split pays the
/// origin jump b0 plus the convex convolution of the pure rate m with g.
/// Convex finite curves are continuous, so no one-sided combinations are
/// missed. This catches the ubiquitous leaky-bucket (x) rate-latency pair,
/// which is neither convex (x) convex (the burst jumps at 0) nor concave
/// (x) concave.
Curve convolve_affine_convex(const Curve& f, const Curve& g) {
  const Segment& s = f.segments().front();
  const Curve ramp = convolve_convex(Curve::rate(s.slope), g);
  return detail::merge_minimum(plus_const(g, s.value_at),
                               plus_const(ramp, s.value_after));
}

}  // namespace

Curve add(const Curve& f, const Curve& g) {
  // A piece of f + g is the sum of one piece of each operand.
  std::vector<Segment> out;
  out.reserve(f.segments().size() + g.segments().size());
  detail::sweep_grid(f, g, [&](double x, double, const detail::MergeLine& a,
                               const detail::MergeLine& b) {
    out.push_back(Segment{x, add_inf(a.at, b.at), add_inf(a.after, b.after),
                          a.slope + b.slope});
  });
  return Curve(std::move(out));
}

Curve minimum(const Curve& f, const Curve& g) {
  return detail::merge_minimum(f, g);
}

Curve maximum(const Curve& f, const Curve& g) {
  return detail::merge_maximum(f, g);
}

Curve subtract_clamped(const Curve& f, const Curve& g) {
  const auto diff = [](double a, double b) {
    if (a == kInf) return kInf;
    if (b == kInf) return 0.0;
    return std::max(a - b, 0.0);
  };
  // A residual that is not wide-sense increasing is not a valid service
  // curve (Le Boudec Thm. 6.2.1's proviso); raising it silently would be
  // unsound, so any fall beyond value noise is rejected.
  const auto require_increasing = [](bool ok) {
    util::require(ok,
                  "subtract_clamped: [f - g]^+ is not wide-sense "
                  "increasing and is not a valid residual service curve");
  };
  std::vector<Segment> segs;
  segs.reserve(f.segments().size() + g.segments().size());
  detail::sweep_grid(f, g, [&](double x, double nx, const detail::MergeLine& a,
                               const detail::MergeLine& b) {
    const double at = diff(a.at, b.at);
    double after = diff(a.after, b.after);
    // A downward jump (cross-traffic burst) makes the residual invalid.
    // Where f is +inf, so is the residual, and nothing can fall.
    require_increasing(at == kInf ||
                       after >= at - 1e-9 * (1.0 + std::fabs(at)));
    after = std::max(after, at);
    if (!segs.empty()) {
      const double left = extend(segs.back(), x);
      require_increasing(left == kInf || at >= left - 1e-9 * (1.0 + left));
    }
    if (a.after == kInf || b.after == kInf) {
      segs.push_back(Segment{x, at, after, 0.0});
      return;
    }
    // On (x, nx), f - g is the line d + ds * (t - x).
    const double d = a.after - b.after;
    const double ds = a.slope - b.slope;
    if (d >= 0.0 && ds >= 0.0) {
      segs.push_back(Segment{x, at, after, ds});
      return;
    }
    segs.push_back(Segment{x, at, after, 0.0});
    if (d > 0.0) {
      // A real fall of [f - g]^+, rejected unless its drop over the piece
      // is at value noise level.
      require_increasing(std::min(d, -ds * (nx - x)) <= 1e-9 * (1.0 + d));
    } else if (d < 0.0 && ds > 0.0) {
      // Flat at 0 up to the zero crossing, rounded up so that the sloped
      // part never starts above f - g.
      const double cross = std::nextafter(x - d / ds, kInf);
      if (cross < nx) segs.push_back(Segment{cross, 0.0, 0.0, ds});
    }
    // Otherwise f - g starts at or below zero and does not rise: flat 0.
  });
  return Curve(std::move(segs));
}

Curve convolve(const Curve& f, const Curve& g) {
  SC_OBS_SPAN("minplus", "convolve");
  SC_OBS_COUNT("minplus.convolve.calls", 1);
  SC_OBS_OBSERVE("minplus.convolve.operand_pieces",
                 f.segments().size() + g.segments().size());
  // Shape dispatch (DESIGN.md §11): classify once from the cached shape
  // metadata, count which kernel fired, and route.
  const detail::ConvKernel kernel = detail::classify_convolve(f, g);
  Curve out = [&]() -> Curve {
    switch (kernel) {
      case detail::ConvKernel::kDelay: {
        SC_OBS_COUNT("minplus.convolve.kernel.delay", 1);
        // delta_T is the shift operator — but only for curves that start
        // at 0: delta_T (x) g equals g(0) on [0, T), not 0, so a curve
        // with g(0) > 0 takes the general path (whose T-anchored branch
        // produces exactly that plateau).
        if (const double tf = pure_delay_latency(f); tf >= 0.0) {
          return g.shift_right(tf);
        }
        return f.shift_right(pure_delay_latency(g));
      }
      case detail::ConvKernel::kConvex:
        SC_OBS_COUNT("minplus.convolve.kernel.convex", 1);
        return convolve_convex(f, g);
      case detail::ConvKernel::kConcave:
        SC_OBS_COUNT("minplus.convolve.kernel.concave", 1);
        return detail::merge_minimum(f, g);
      case detail::ConvKernel::kAffineConvex:
        SC_OBS_COUNT("minplus.convolve.kernel.affine_convex", 1);
        if (f.segments().size() == 1 && f.is_finite() && g.is_convex() &&
            g.is_finite()) {
          return convolve_affine_convex(f, g);
        }
        return convolve_affine_convex(g, f);
      case detail::ConvKernel::kGeneral:
        break;
    }
    SC_OBS_COUNT("minplus.convolve.kernel.general", 1);
    return detail::convolve_general(f, g);
  }();
  SC_OBS_OBSERVE("minplus.convolve.result_pieces", out.segments().size());
  return out;
}

Curve deconvolve(const Curve& f, const Curve& g) {
  SC_OBS_SPAN("minplus", "deconvolve");
  SC_OBS_COUNT("minplus.deconvolve.calls", 1);
  SC_OBS_OBSERVE("minplus.deconvolve.operand_pieces",
                 f.segments().size() + g.segments().size());
  Curve out = [&]() -> Curve {
    if (detail::classify_deconvolve(f, g) ==
        detail::DeconvKernel::kDivergent) {
      SC_OBS_COUNT("minplus.deconvolve.kernel.divergent", 1);
      // The supremum diverges for every t: the deconvolution is +inf
      // everywhere (the flow cannot be bounded by any arrival curve).
      return Curve({Segment{0.0, kInf, kInf, 0.0}});
    }
    SC_OBS_COUNT("minplus.deconvolve.kernel.general", 1);
    return detail::deconvolve_general(f, g);
  }();
  SC_OBS_OBSERVE("minplus.deconvolve.result_pieces", out.segments().size());
  return out;
}

namespace detail {

const char* kernel_name(ConvKernel k) {
  switch (k) {
    case ConvKernel::kDelay:
      return "delay";
    case ConvKernel::kConvex:
      return "convex";
    case ConvKernel::kConcave:
      return "concave";
    case ConvKernel::kAffineConvex:
      return "affine_convex";
    case ConvKernel::kGeneral:
      break;
  }
  return "general";
}

const char* kernel_name(DeconvKernel k) {
  switch (k) {
    case DeconvKernel::kDivergent:
      return "divergent";
    case DeconvKernel::kGeneral:
      break;
  }
  return "general";
}

ConvKernel classify_convolve(const Curve& f, const Curve& g) {
  if (const double tf = pure_delay_latency(f); tf >= 0.0) {
    if (g.value(0.0) == 0.0) return ConvKernel::kDelay;
  } else if (const double tg = pure_delay_latency(g); tg >= 0.0) {
    if (f.value(0.0) == 0.0) return ConvKernel::kDelay;
  }
  if (f.is_finite() && g.is_finite() && f.is_convex() && g.is_convex()) {
    return ConvKernel::kConvex;
  }
  if (f.is_concave_from_origin() && g.is_concave_from_origin()) {
    return ConvKernel::kConcave;
  }
  if ((f.segments().size() == 1 && f.is_finite() && g.is_convex() &&
       g.is_finite()) ||
      (g.segments().size() == 1 && g.is_finite() && f.is_convex() &&
       f.is_finite())) {
    return ConvKernel::kAffineConvex;
  }
  return ConvKernel::kGeneral;
}

DeconvKernel classify_deconvolve(const Curve& f, const Curve& g) {
  if (tail_diverges(f, g)) return DeconvKernel::kDivergent;
  return DeconvKernel::kGeneral;
}

Curve convolve_general(const Curve& f, const Curve& g) {
  // For fixed t, f(s) + g(t - s) is piecewise linear in s, so its infimum
  // is a value or a one-sided limit where s or t - s sits at an operand
  // breakpoint. Each such anchoring is a whole *branch curve* in t, a
  // shifted copy of one operand plus a constant from the other, and the
  // convolution is the pointwise minimum of all branches; crossing kinks
  // come from the direct segment merge. The anchors cover every split
  // exactly: at s = x (a breakpoint of f) the point value pairs with g's
  // point values, s -> x- pairs f's left limit with g's right limits
  // (add_conv_anchors), and s -> x+ meets g's left limit only where t - x
  // is a breakpoint of g, which the mirrored anchor there covers with f's
  // right limits. A branch's translated breakpoints carry the value at
  // their float abscissa (detail::translated_value), so the minimum of the
  // branches gives every point value, with no repair.
  const Curve f_right = right_continuous(f);
  const Curve g_right = right_continuous(g);
  std::vector<ConvBranchDesc> descs;
  add_conv_anchors(descs, f, g, g_right);
  add_conv_anchors(descs, g, f, f_right);
  return fold_envelope(
      descs.size(),
      [&](std::size_t i) {
        return conv_branch(*descs[i].shape, descs[i].T, descs[i].c);
      },
      [](const Curve& a, const Curve& b) { return merge_minimum(a, b); });
}

Curve deconvolve_general(const Curve& f, const Curve& g) {
  // Reflected-branch envelope, dual to convolve_general(): the supremum of
  // f(t + s) - g(s) over s is a value or a one-sided limit where s sits at
  // a breakpoint y of g or t + s at a breakpoint x of f. Each anchoring is
  // a whole curve in t; the deconvolution is their pointwise maximum. The
  // anchors pair each one-sided value with the one-sided copy of the other
  // operand its split reaches:
  //   * g(y) with f's point values, and g(y-) (s -> y-, so t + s -> (t +
  //     y)-) with f's left limits;
  //   * f(x+) (t + s -> x+, so s -> (x - t)+) with g's right limits, and,
  //     where f jumps, f(x) with g's point values.
  // s -> y+ pairs g(y+) with f's right limits, never above the point
  // anchor unless t + y is a breakpoint of f, which the f(x+) anchor
  // covers.
  struct BranchDesc {
    double s;            ///< g-anchor abscissa (shift), or f-anchor abscissa
    double c;            ///< constant contribution
    const Curve* shape;  ///< the operand copy the branch is built from
    bool from_f;         ///< true: reflected branch at an f breakpoint
  };
  const Curve f_left = left_continuous(f);
  const Curve g_right = right_continuous(g);
  std::vector<BranchDesc> descs;
  const auto add_g_anchor = [&](double s) {
    const double at = g.value(s);
    const double left = g.value_left(s);
    if (at != kInf) descs.push_back(BranchDesc{s, at, &f, false});
    // Pushed even where g is continuous, as a duplicate of the point
    // anchor: the fold's crossing re-chords (merge_maximum,
    // rechord_translated) lower slopes, so the branch count shapes the
    // merge tree, and a shorter list moved output arrival curves down.
    if (left != kInf) {
      descs.push_back(
          BranchDesc{s, left, left == at ? &f : &f_left, false});
    }
  };
  for (const Segment& sg : g.segments()) add_g_anchor(sg.x);
  // One anchor beyond all breakpoints: past it the difference decays (the
  // unbounded case was excluded by dispatch), so the tail is fully covered.
  add_g_anchor(std::max(f.last_breakpoint(), g.last_breakpoint()) + 1.0);
  for (const Segment& sf : f.segments()) {
    descs.push_back(BranchDesc{sf.x, sf.value_after, &g_right, true});
    if (sf.value_at != sf.value_after) {
      descs.push_back(BranchDesc{sf.x, sf.value_at, &g, true});
    }
  }
  // Branch 0 is the zero floor: the deconvolution clamps at 0.
  return fold_envelope(
      descs.size() + 1,
      [&](std::size_t i) {
        if (i == 0) return Curve::zero();
        const BranchDesc& d = descs[i - 1];
        return d.from_f ? deconv_reflected_branch(*d.shape, d.s, d.c)
                        : d.shape->shift_left(d.s).minus_clamped(d.c);
      },
      [](const Curve& a, const Curve& b) { return merge_maximum(a, b); });
}

}  // namespace detail

}  // namespace streamcalc::minplus
