#include "maxplus/operations.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "minplus/detail/builder.hpp"
#include "minplus/detail/merge.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace streamcalc::maxplus {

namespace {

using minplus::Segment;
using minplus::detail::kInf;

double add_inf(double a, double b) {
  if (a == kInf || b == kInf) return kInf;
  return a + b;
}

/// a - b for the infimum: -inf (returned as the clamp 0 by callers) when b
/// dominates; +inf when a is infinite.
double sub_inf(double a, double b) {
  if (a == kInf && b == kInf) return kInf;  // undefined piece; ignore (big)
  if (a == kInf) return kInf;
  if (b == kInf) return -kInf;
  return a - b;
}

double sup_at_impl(const Curve& f, const Curve& g, double t) {
  std::vector<double> ss{0.0, t};
  for (const Segment& s : f.segments()) {
    if (s.x <= t) ss.push_back(s.x);
  }
  for (const Segment& s : g.segments()) {
    if (s.x <= t) ss.push_back(t - s.x);
  }
  double best = 0.0;
  for (double s : ss) {
    if (s < 0.0 || s > t) continue;
    const double u = t - s;
    best = std::max(best, add_inf(f.value(s), g.value(u)));
    if (s < t) {
      best = std::max(best, add_inf(f.value_right(s), g.value_left(u)));
    }
    if (s > 0.0) {
      best = std::max(best, add_inf(f.value_left(s), g.value_right(u)));
    }
    if (best == kInf) break;
  }
  return best;
}

/// Replaces point values of an envelope with the exact evaluator's values
/// (see the min-plus twin in minplus/operations.cpp).
template <typename AtFn>
Curve repair_point_values(const Curve& env, const AtFn& at) {
  std::vector<Segment> segs = env.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    Segment& s = segs[i];
    double lo = 0.0;
    if (i > 0) {
      const Segment& p = segs[i - 1];
      lo = p.value_after == kInf ? kInf
                                 : p.value_after + p.slope * (s.x - p.x);
    }
    if (lo != kInf && s.value_after < lo - 1e-9 * (1.0 + lo)) {
      // Degenerate envelope piece (see the min-plus twin): lift the point
      // to the left limit so the curve stays wide-sense increasing.
      s.value_at = lo;
      s.value_after = lo;
      continue;
    }
    s.value_at = std::min(std::max(at(s.x), lo), s.value_after);
  }
  return Curve(std::move(segs));
}

}  // namespace

double convolve_at(const Curve& f, const Curve& g, double t) {
  util::require(t >= 0.0 && !std::isnan(t), "convolve_at requires t >= 0");
  return sup_at_impl(f, g, t);
}

Curve convolve(const Curve& f, const Curve& g) {
  SC_OBS_SPAN("maxplus", "convolve");
  SC_OBS_COUNT("maxplus.convolve.calls", 1);
  // Branch envelope, dual to min-plus convolve(): anchoring the split at a
  // breakpoint T of one operand contributes the whole curve
  // c + g(t - T) for t >= T (and 0 before, a safe under-estimate for a
  // supremum of non-negative curves). maximum() finds branch crossings
  // exactly; isolated point values are repaired afterwards.
  const std::size_t nf = f.segments().size();
  const auto branch = [&](std::size_t i) {
    // Branches 0..nf-1 anchor at f's breakpoints and carry g; the rest
    // anchor at g's breakpoints and carry f.
    const Segment& s = i < nf ? f.segments()[i] : g.segments()[i - nf];
    const Curve& shape = i < nf ? g : f;
    // The largest legitimate contribution at/after the anchor dominates.
    const double c = s.value_after;
    if (c == kInf) {
      // Everything from this anchor on is +inf.
      std::vector<Segment> segs;
      if (s.x > 0.0) segs.push_back(Segment{0.0, 0.0, 0.0, 0.0});
      segs.push_back(
          Segment{s.x, s.value_at == kInf ? kInf : 0.0, kInf, 0.0});
      // A jump to +inf needs value_at >= previous limit; keep it simple
      // and conservative: 0 at the point unless truly infinite there.
      return Curve(std::move(segs));
    }
    Curve shifted = shape;
    if (c > 0.0) shifted = shifted.plus_step(c);
    // plus_step leaves the origin value; lift it too so the constant is
    // applied uniformly (the repair pass fixes isolated points anyway).
    return shifted.shift_right(s.x);
  };
  const Curve env = minplus::detail::fold_envelope(
      nf + g.segments().size(), branch, [](const Curve& a, const Curve& b) {
        return minplus::detail::merge_maximum(a, b);
      });
  return repair_point_values(env,
                             [&](double t) { return sup_at_impl(f, g, t); });
}

namespace {

/// Exact point (or right-limit) evaluation of the clamped max-plus
/// deconvolution.
double inf_at_impl(const Curve& f, const Curve& g, double t,
                   bool right_limit) {
  std::vector<double> ss{0.0};
  for (const Segment& s : g.segments()) ss.push_back(s.x);
  for (const Segment& s : f.segments()) {
    if (s.x >= t) ss.push_back(s.x - t);
  }
  ss.push_back(std::max(f.last_breakpoint(), g.last_breakpoint()) + 1.0);
  double best = kInf;
  for (double s : ss) {
    if (s < 0.0) continue;
    const double a = t + s;
    if (right_limit) {
      best = std::min(best, sub_inf(f.value_right(a), g.value(s)));
      best = std::min(best, sub_inf(f.value_right(a), g.value_right(s)));
      if (s > 0.0) {
        best = std::min(best, sub_inf(f.value(a), g.value_left(s)));
      }
    } else {
      best = std::min(best, sub_inf(f.value(a), g.value(s)));
      best = std::min(best, sub_inf(f.value_right(a), g.value_right(s)));
      if (s > 0.0) {
        best = std::min(best, sub_inf(f.value_left(a), g.value_left(s)));
      }
    }
  }
  return std::max(0.0, best);
}

}  // namespace

double deconvolve_at(const Curve& f, const Curve& g, double t) {
  util::require(t >= 0.0 && !std::isnan(t), "deconvolve_at requires t >= 0");
  if (f.tail_slope() < g.tail_slope()) return 0.0;  // diverges to -inf
  return inf_at_impl(f, g, t, /*right_limit=*/false);
}

Curve deconvolve(const Curve& f, const Curve& g) {
  SC_OBS_SPAN("maxplus", "deconvolve");
  SC_OBS_COUNT("maxplus.deconvolve.calls", 1);
  if (f.tail_slope() < g.tail_slope()) return Curve::zero();
  // Candidate breakpoints (differences of operand breakpoints) plus
  // adaptive refinement: the infimum envelope can kink where competing
  // branches cross, which bisection localizes to machine precision.
  std::vector<double> ts{0.0};
  for (const Segment& sf : f.segments()) {
    ts.push_back(sf.x);
    for (const Segment& sg : g.segments()) {
      if (sf.x - sg.x > 0.0) ts.push_back(sf.x - sg.x);
    }
  }
  for (const Segment& sg : g.segments()) ts.push_back(sg.x);
  // Far probe so the bisection refinement can reach kinks beyond the last
  // seeded candidate (past it the curve is affine).
  ts.push_back(f.last_breakpoint() + g.last_breakpoint() + 1.0);
  const auto at = [&](double t) {
    return inf_at_impl(f, g, t, /*right_limit=*/false);
  };
  const auto right = [&](double t) {
    return inf_at_impl(f, g, t, /*right_limit=*/true);
  };
  std::vector<double> grid = minplus::detail::canonical_candidates(ts);
  for (int round = 0; round < 40; ++round) {
    // Each interval's chord test needs the evaluator at both endpoints and
    // the midpoint.
    const std::size_t n = grid.size();
    std::vector<double> vals(n);
    for (std::size_t i = 0; i < n; ++i) vals[i] = at(grid[i]);
    std::vector<double> refined;
    bool changed = false;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      refined.push_back(grid[i]);
      const double mid = 0.5 * (grid[i] + grid[i + 1]);
      // Linear between neighbours? Compare the evaluator with the chord.
      const double vm = at(mid);
      const double chord = 0.5 * (vals[i] + vals[i + 1]);
      if (std::isfinite(vm) && std::isfinite(chord) &&
          std::fabs(vm - chord) > 1e-9 * (1.0 + std::fabs(vm))) {
        refined.push_back(mid);
        changed = true;
      }
    }
    refined.push_back(grid.back());
    grid = std::move(refined);
    if (!changed) break;
  }
  return minplus::detail::build_from_evaluators(grid, at, right);
}

}  // namespace streamcalc::maxplus
