#include "minplus/operations.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "minplus/detail/builder.hpp"
#include "minplus/detail/merge.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace streamcalc::minplus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  for (const Segment& s : g.segments()) {
    const double x = s.x + T;
    if (!out.empty() && x <= out.back().x) continue;  // ulp collision
    out.push_back(Segment{x, add_inf(s.value_at, c),
                          add_inf(s.value_after, c), s.slope});
  }
  detail::rechord_translated(out);
  return Curve(std::move(out));
}

/// Replaces each breakpoint's value_at with the exact evaluator's value
/// (clamped into [left limit, right limit] so rounding noise cannot break
/// monotonicity). The envelope construction is exact on open intervals and
/// at right limits, but at isolated breakpoints the true value can differ
/// from the branch minimum/maximum; this repairs those points.
template <typename AtFn>
Curve repair_point_values(const Curve& env, const AtFn& at) {
  std::vector<Segment> segs = env.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    Segment& s = segs[i];
    const double exact = at(s.x);
    double lo = 0.0;
    if (i > 0) {
      const Segment& p = segs[i - 1];
      lo = p.value_after == kInf ? kInf
                                 : p.value_after + p.slope * (s.x - p.x);
    }
    if (i > 0 && lo != kInf && exact < lo &&
        exact >= segs[i - 1].value_after) {
      // The previous piece overextends past this breakpoint's exact
      // value: its abscissa rounded beyond the true crossing, so the
      // stored slope's extrapolation overshoots. Rechord the previous
      // piece down to the exact value rather than clamping the exact
      // value up to the stale extrapolation (which would bake the
      // overshoot into the entire tail).
      Segment& p = segs[i - 1];
      p.slope = (exact - p.value_after) / (s.x - p.x);
      lo = exact;
    }
    if (lo != kInf && s.value_after < lo - 1e-9 * (1.0 + lo)) {
      // Degenerate envelope piece: the previous segment's extrapolation
      // overshoots this breakpoint's right limit by more than the curve
      // tolerance (normalize() merges collinear pieces with a tolerance,
      // so the stored slope can drift over long near-flat spans). Lift
      // the point to the left limit to keep the curve wide-sense
      // increasing; the bump stays within the merge tolerance.
      s.value_at = lo;
      s.value_after = lo;
      continue;
    }
    s.value_at = std::min(std::max(exact, lo), s.value_after);
  }
  return Curve(std::move(segs));
}

/// Branch of the deconvolution supremum anchored at t + s = X with
/// f-contribution c: max(0, c - g(X - t)) on [0, X], constant after (safe
/// because deconv(t) >= f(t) - g(0) >= c - g(0) for t >= X).
///
/// Built directly from g's segments. Re-evaluating g at fl(X - t) for a
/// candidate t = fl(X - x_j) rounds twice and can land an ulp past the
/// jump at x_j, which both misses the jump value and lets the midpoint
/// probe fabricate a wrong slope; carrying g's exact values to the
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
    const double at = sub_inf(c, sj.value_at);
    double after, slope;
    if (jj > 0) {
      after = sub_inf(c, g.value_left(sj.x));
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

double conv_at_impl(const Curve& f, const Curve& g, double t) {
  // Candidate splits (s, u) with s + u == t up to one rounding. Each split
  // keeps the anchoring operand's breakpoint abscissa EXACT and rounds
  // only the complement: recomputing u = t - s after s = t - b.x already
  // rounded can land one ulp past b.x and miss the operand's pre-jump
  // point value there.
  //
  // This runs once per envelope breakpoint during repair, so its cost
  // multiplies into every general convolution. As the anchoring breakpoint
  // abscissa ascends, the complement t - x descends monotonically, so one
  // backward cursor into the other operand replaces a binary search per
  // evaluation, and the anchoring operand's one-sided values are read
  // straight off its segment (no lookup at all).
  const std::vector<Segment>& fsg = f.segments();
  const std::vector<Segment>& gsg = g.segments();
  const auto ext = [](double v, double m, double dx) {
    return v == kInf ? kInf : v + m * dx;
  };
  double best = kInf;

  // Splits anchored at f's breakpoints: s = a.x exact, u = t - s.
  {
    std::size_t j = gsg.size() - 1;
    for (std::size_t i = 0; i < fsg.size(); ++i) {
      const Segment& a = fsg[i];
      if (a.x > t) break;
      const double u = t - a.x;
      while (j > 0 && gsg[j].x > u) --j;
      const Segment& bs = gsg[j];
      const double g_interior = ext(bs.value_after, bs.slope, u - bs.x);
      best = std::min(
          best, add_inf(a.value_at, u == bs.x ? bs.value_at : g_interior));
      if (u > 0.0) {
        // u == bs.x > 0 implies j > 0 (g's first breakpoint sits at 0).
        const double g_left =
            u == bs.x ? ext(gsg[j - 1].value_after, gsg[j - 1].slope,
                            u - gsg[j - 1].x)
                      : g_interior;
        best = std::min(best, add_inf(a.value_after, g_left));
      }
      double f_left = a.value_at;
      if (a.x > 0.0) {
        const Segment& p = fsg[i - 1];
        f_left = ext(p.value_after, p.slope, a.x - p.x);
        const double g_right = u == bs.x ? bs.value_after : g_interior;
        best = std::min(best, add_inf(f_left, g_right));
      }
      // Breakpoint pairs whose rounded sum lands exactly on t. The
      // envelope construction places result breakpoints at fl(x_f + x_g);
      // the split complement above recomputes t - x, which can round one
      // ulp past the other operand's jump and miss its point value — and
      // does so differently for (f, g) and (g, f). Evaluating the pair
      // directly is symmetric in the operands and anchors the jump at the
      // representable breakpoint. Only b.x within one rounding of t - a.x
      // qualifies — a slack window around the cursor.
      const double slack = 4.0 * std::numeric_limits<double>::epsilon() *
                           (std::fabs(t) + std::fabs(a.x) + 1.0);
      const auto pair_eval = [&](std::size_t k) {
        const Segment& b = gsg[k];
        if (a.x + b.x != t) return;
        best = std::min(best, add_inf(a.value_at, b.value_at));
        if (a.x > 0.0) {
          best = std::min(best, add_inf(f_left, b.value_after));
        }
        if (b.x > 0.0) {
          const double g_left = ext(gsg[k - 1].value_after, gsg[k - 1].slope,
                                    b.x - gsg[k - 1].x);
          best = std::min(best, add_inf(a.value_after, g_left));
        }
      };
      for (std::size_t k = j; gsg[k].x >= u - slack; --k) {
        pair_eval(k);
        if (k == 0) break;
      }
      for (std::size_t k = j + 1; k < gsg.size() && gsg[k].x <= u + slack;
           ++k) {
        pair_eval(k);
      }
    }
  }

  // Splits anchored at g's breakpoints: u = b.x exact, s = t - u.
  {
    std::size_t i = fsg.size() - 1;
    for (std::size_t k = 0; k < gsg.size(); ++k) {
      const Segment& b = gsg[k];
      if (b.x > t) break;
      const double s = t - b.x;
      while (i > 0 && fsg[i].x > s) --i;
      const Segment& as = fsg[i];
      const double f_interior = ext(as.value_after, as.slope, s - as.x);
      best = std::min(
          best, add_inf(s == as.x ? as.value_at : f_interior, b.value_at));
      if (b.x > 0.0) {
        const double f_right = s == as.x ? as.value_after : f_interior;
        const double g_left = ext(gsg[k - 1].value_after, gsg[k - 1].slope,
                                  b.x - gsg[k - 1].x);
        best = std::min(best, add_inf(f_right, g_left));
      }
      if (s > 0.0) {
        // s == as.x > 0 implies i > 0 (f's first breakpoint sits at 0).
        const double f_left =
            s == as.x ? ext(fsg[i - 1].value_after, fsg[i - 1].slope,
                            s - fsg[i - 1].x)
                      : f_interior;
        best = std::min(best, add_inf(f_left, b.value_after));
      }
    }
  }
  return best;
}

double deconv_at_impl(const Curve& f, const Curve& g, double t,
                      bool right_limit) {
  std::vector<double> ss{0.0};
  for (const Segment& s : g.segments()) ss.push_back(s.x);
  for (const Segment& s : f.segments()) {
    if (s.x >= t) ss.push_back(s.x - t);
  }
  // One probe beyond every breakpoint: past it the difference is affine
  // with non-positive slope (callers rule out the unbounded case first),
  // so no larger value exists further out.
  ss.push_back(std::max(f.last_breakpoint(), g.last_breakpoint()) + 1.0);

  double best = 0.0;  // deconvolution of cumulative curves clamps at 0
  for (double s : ss) {
    if (s < 0.0) continue;
    const double a = t + s;
    if (right_limit) {
      best = std::max(best, sub_inf(f.value_right(a), g.value(s)));
      best = std::max(best, sub_inf(f.value_right(a), g.value_right(s)));
      best = std::max(best, sub_inf(f.value(a), g.value(s)));
      if (s > 0.0) {
        best = std::max(best, sub_inf(f.value(a), g.value_left(s)));
      }
    } else {
      best = std::max(best, sub_inf(f.value(a), g.value(s)));
      best = std::max(best, sub_inf(f.value_right(a), g.value_right(s)));
      if (s > 0.0) {
        best = std::max(best, sub_inf(f.value_left(a), g.value_left(s)));
      }
    }
    if (best == kInf) break;
  }
  if (best == kInf) return best;
  // Dual of the pair scan in conv_at_impl: result breakpoints sit at
  // fl(x_f - x_g), and recomputing t + s can round past a jump of f.
  // Evaluate pairs whose rounded difference is exactly t directly; only
  // b.x within one rounding of a.x - t qualifies, found by binary search.
  const std::vector<Segment>& gsegs = g.segments();
  for (const Segment& a : f.segments()) {
    const double target = a.x - t;
    const double slack = 4.0 * std::numeric_limits<double>::epsilon() *
                         (std::fabs(t) + std::fabs(a.x) + 1.0);
    if (target < -slack) continue;
    auto it = std::lower_bound(
        gsegs.begin(), gsegs.end(), target - slack,
        [](const Segment& s, double v) { return s.x < v; });
    for (; it != gsegs.end() && it->x <= target + slack; ++it) {
      const Segment& b = *it;
      if (a.x - b.x != t) continue;
      best = std::max(best, sub_inf(f.value(a.x), g.value(b.x)));
      best = std::max(best, sub_inf(f.value_right(a.x), g.value_right(b.x)));
      if (right_limit) {
        best = std::max(best, sub_inf(f.value_right(a.x), g.value(b.x)));
        if (b.x > 0.0) {
          best = std::max(best, sub_inf(f.value(a.x), g.value_left(b.x)));
        }
      } else if (b.x > 0.0) {
        best = std::max(best, sub_inf(f.value_left(a.x), g.value_left(b.x)));
      }
    }
  }
  return best;
}

/// Branch descriptor for the convolution envelope: the branch curve is
/// c + shape(t - T) (with conv_branch's plateau before T).
struct ConvBranchDesc {
  const Curve* shape;
  double T;
  double c;
};

/// Anchor branches at every breakpoint of `anchor` (both the point value
/// and, where it differs, the left limit — jumps contribute one-sided
/// values to the infimum).
void add_conv_anchors(std::vector<ConvBranchDesc>& descs, const Curve& anchor,
                      const Curve& shape) {
  for (const Segment& s : anchor.segments()) {
    descs.push_back(ConvBranchDesc{&shape, s.x, s.value_at});
    const double left = anchor.value_left(s.x);
    if (left != s.value_at) {
      descs.push_back(ConvBranchDesc{&shape, s.x, left});
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
/// missed and no point repair is needed. This catches the ubiquitous
/// leaky-bucket (x) rate-latency pair, which is neither convex (x) convex
/// (the burst jumps at 0) nor concave (x) concave.
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
    require_increasing(after >= at - 1e-9 * (1.0 + std::fabs(at)));
    after = std::max(after, at);
    if (!segs.empty()) {
      const Segment& p = segs.back();
      const double left =
          p.value_after == kInf ? kInf : p.value_after + p.slope * (x - p.x);
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

double convolve_at(const Curve& f, const Curve& g, double t) {
  util::require(t >= 0.0 && !std::isnan(t), "convolve_at requires t >= 0");
  return conv_at_impl(f, g, t);
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

double deconvolve_at(const Curve& f, const Curve& g, double t) {
  util::require(t >= 0.0 && !std::isnan(t), "deconvolve_at requires t >= 0");
  if (detail::tail_diverges(f, g)) return kInf;
  return deconv_at_impl(f, g, t, /*right_limit=*/false);
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
  // The infimum over the split point s is attained (or approached) where s
  // or t - s sits at an operand breakpoint; each such anchoring yields a
  // whole *branch curve* in t — a shifted copy of one operand plus a
  // constant from the other. The convolution is the pointwise minimum of
  // all branches; crossing kinks come from the direct segment merge, and
  // isolated point values are repaired from the exact evaluator.
  std::vector<ConvBranchDesc> descs;
  add_conv_anchors(descs, f, g);
  add_conv_anchors(descs, g, f);
  const Curve env = fold_envelope(
      descs.size(),
      [&](std::size_t i) {
        return conv_branch(*descs[i].shape, descs[i].T, descs[i].c);
      },
      [](const Curve& a, const Curve& b) { return merge_minimum(a, b); });
  return repair_point_values(env,
                             [&](double t) { return conv_at_impl(f, g, t); });
}

Curve deconvolve_general(const Curve& f, const Curve& g) {
  // Reflected-branch envelope, dual to convolve_general(): the supremum
  // over s is attained (or approached) where s sits at a breakpoint of g
  // or where t + s sits at a breakpoint of f. Each anchoring is a whole
  // curve in t; the deconvolution is their pointwise maximum, with
  // isolated point values repaired afterwards.
  struct BranchDesc {
    double s;     ///< g-anchor abscissa (shift), or f-anchor abscissa
    double c;     ///< constant contribution
    bool from_f;  ///< true: reflected branch anchored at an f breakpoint
  };
  std::vector<BranchDesc> descs;
  const auto add_g_anchor = [&](double s) {
    for (double c : {g.value(s), g.value_left(s)}) {
      if (c == kInf) continue;
      descs.push_back(BranchDesc{s, c, /*from_f=*/false});
    }
  };
  for (const Segment& sg : g.segments()) add_g_anchor(sg.x);
  // One anchor beyond all breakpoints: past it the difference decays (the
  // unbounded case was excluded by dispatch), so the tail is fully covered.
  add_g_anchor(std::max(f.last_breakpoint(), g.last_breakpoint()) + 1.0);
  for (const Segment& sf : f.segments()) {
    descs.push_back(BranchDesc{sf.x, f.value_right(sf.x), /*from_f=*/true});
  }
  // Branch 0 is the zero floor: the deconvolution clamps at 0.
  const Curve env = fold_envelope(
      descs.size() + 1,
      [&](std::size_t i) {
        if (i == 0) return Curve::zero();
        const BranchDesc& d = descs[i - 1];
        return d.from_f ? deconv_reflected_branch(g, d.s, d.c)
                        : f.shift_left(d.s).minus_clamped(d.c);
      },
      [](const Curve& a, const Curve& b) { return merge_maximum(a, b); });
  return repair_point_values(env, [&](double t) {
    return deconv_at_impl(f, g, t, /*right_limit=*/false);
  });
}

}  // namespace detail

}  // namespace streamcalc::minplus
