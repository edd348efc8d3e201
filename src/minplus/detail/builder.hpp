// Internal: reconstruction of piecewise-linear curves from exact point
// evaluators, shared by the operation implementations. Not part of the
// public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "minplus/curve.hpp"
#include "util/error.hpp"

namespace streamcalc::minplus::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deterministic balanced pairwise reduction of a branch envelope: level k
/// merges neighbours (2i, 2i+1), carrying an odd tail element through. The
/// tree shape depends only on level.size().
template <typename Merge>
Curve reduce_envelope(std::vector<Curve> level, const Merge& merge) {
  SC_ASSERT(!level.empty());
  while (level.size() > 1) {
    std::vector<Curve> next;
    next.reserve(level.size() / 2 + level.size() % 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(merge(level[i], level[i + 1]));
    }
    if (level.size() % 2 != 0) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

/// Envelope of the n branch curves branch(0), ..., branch(n - 1) under
/// `merge` (pointwise minimum or maximum). Branches are built and folded
/// one 64-branch tile at a time, so at most one tile of branch curves is
/// live; the tile envelopes then fold through the same pairwise reduction.
/// Tiles start at multiples of 64, so the merge tree is exactly the one a
/// flat reduce_envelope over all n branches would build.
template <typename BranchFn, typename Merge>
Curve fold_envelope(std::size_t n, const BranchFn& branch,
                    const Merge& merge) {
  constexpr std::size_t kTile = 64;
  std::vector<Curve> tile_env;
  tile_env.reserve((n + kTile - 1) / kTile);
  for (std::size_t b0 = 0; b0 < n; b0 += kTile) {
    const std::size_t b1 = std::min(n, b0 + kTile);
    std::vector<Curve> tile;
    tile.reserve(b1 - b0);
    for (std::size_t i = b0; i < b1; ++i) tile.push_back(branch(i));
    tile_env.push_back(reduce_envelope(std::move(tile), merge));
  }
  return reduce_envelope(std::move(tile_env), merge);
}

/// Tolerant tail-slope divergence test shared by deconvolution and the
/// deviation bounds. Tail slopes of composed results carry accumulated
/// rounding (translated breakpoints, rechorded pieces), so an excess at
/// noise level means "equal tails", not divergence; a genuine divergence
/// has a slope gap at the operands' own scale.
inline bool tail_diverges(const Curve& f, const Curve& g) {
  const double fs = f.tail_slope();
  const double gs = g.tail_slope();
  return fs > gs + 1e-9 * (1.0 + std::fabs(gs));
}

/// Repairs segment slopes after breakpoint abscissae were translated
/// (shift, branch anchoring): each x rounds independently, which perturbs
/// the gap between close breakpoints, and a steep slope carried over
/// unchanged then extrapolates past the next value_at and fails
/// validation. In a valid source curve the chord between adjacent
/// breakpoints is always >= the stored slope (a genuine jump makes it
/// larger), so chord < slope is purely the rounding artifact — lower the
/// slope to the exact chord; never raise it (that would erase a jump).
inline void rechord_translated(std::vector<Segment>& segs) {
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
    Segment& cur = segs[i];
    const Segment& next = segs[i + 1];
    if (cur.value_after == kInf || next.value_at == kInf) continue;
    const double chord =
        (next.value_at - cur.value_after) / (next.x - cur.x);
    if (chord < cur.slope) cur.slope = std::max(0.0, chord);
  }
}

/// Sorts, dedups (with a relative tolerance so candidate points computed
/// with rounding error collapse onto true breakpoints), drops negatives,
/// and ensures 0 is present.
inline std::vector<double> canonical_candidates(std::vector<double> xs) {
  xs.push_back(0.0);
  std::sort(xs.begin(), xs.end());
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) {
    if (x < 0.0) continue;
    if (!out.empty() && x - out.back() <= 1e-12 * (1.0 + std::fabs(x))) {
      continue;
    }
    out.push_back(x);
  }
  SC_ASSERT(!out.empty() && out.front() == 0.0);
  return out;
}

/// Builds a curve from point evaluators. `at(t)` gives f(t), `right(t)`
/// gives the right limit. The evaluators must be exact on the candidate
/// grid (the function must be linear between adjacent candidates); the
/// builder recovers each linear piece from a midpoint sample and the final
/// infinite segment from a probe one span past the last candidate.
///
/// `slope_set`, when given, lists every slope the result can possibly
/// take (for min/max/add of piecewise-linear curves each linear piece
/// lies on an operand piece or a sum of them, so the set is known
/// exactly). Recovered chord slopes within rounding distance of a member
/// snap to it bit-exactly — without this, a tail slope one ulp above the
/// true operand slope makes downstream divergence tests (deconvolution's
/// tail-slope comparison) misfire.
template <typename AtFn, typename RightFn>
Curve build_from_evaluators(const std::vector<double>& candidates,
                            const AtFn& at, const RightFn& right,
                            const std::vector<double>* slope_set = nullptr) {
  const std::size_t n = candidates.size();
  // Phase 1 — per-candidate evaluation: value, right limit, and the slope
  // recovered from a midpoint probe.
  std::vector<double> v_at(n), v_after(n), v_slope(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = candidates[i];
    const double value_at = at(x);
    double value_after = std::max(right(x), value_at);
    double slope = 0.0;
    if (value_after != kInf) {
      double probe_x1, probe_x2;
      if (i + 1 < n) {
        const double span = candidates[i + 1] - x;
        probe_x1 = x + 0.5 * span;
        probe_x2 = x + 0.75 * span;
      } else {
        const double span = std::max(1.0, x);
        probe_x1 = x + span;
        probe_x2 = x + 2.0 * span;
      }
      const double p1 = at(probe_x1);
      if (p1 == kInf) {
        // The function reaches +inf between this candidate and the
        // probe. Candidates cover every breakpoint, so the only way
        // to get here is an inf transition within the dedup
        // tolerance of x (two constructed breakpoints one ulp
        // apart, collapsed onto x by canonical_candidates).
        // Canonicalize the sliver away: jump to +inf at x itself.
        v_at[i] = value_at;
        v_after[i] = kInf;
        v_slope[i] = 0.0;
        continue;
      }
      const double p2 = at(probe_x2);
      double rise = p1 - value_after;
      double run = probe_x1 - x;
      if (p2 != kInf) {
        // Two probes per piece: if the candidate-to-probe chord and
        // the probe-to-probe chord disagree, a kink sits between x
        // and the first probe — a real crossing that fell inside the
        // candidate dedup tolerance of x and was collapsed into it.
        // A single probe would then fabricate an averaged slope
        // whose downstream crossing searches land at absurd
        // abscissae. Take the post-kink slope from the probe pair
        // and fold the kink into x by lifting the right limit to
        // the probe line's back-extrapolation.
        const double s01 = rise / run;
        const double s12 = (p2 - p1) / (probe_x2 - probe_x1);
        const double kink_noise =
            64.0 * std::numeric_limits<double>::epsilon() *
                (std::fabs(p1) + std::fabs(p2) + std::fabs(value_after)) /
                (probe_x2 - probe_x1) +
            1e-9 * std::max(std::fabs(s01), std::fabs(s12));
        if (std::fabs(s12 - s01) > kink_noise) {
          const double post = std::max(0.0, s12);
          const double extrap = p1 - post * (probe_x1 - x);
          value_after = std::max(value_after, std::min(extrap, p1));
          rise = p1 - value_after;
          // Recompute over the probe pair: better conditioned than
          // dividing the adjusted rise by the half span.
          slope = post;
        }
      }
      if (value_after != kInf && slope == 0.0) {
        slope = std::max(0.0, rise / run);
      }
      // A probe within rounding distance of value_after is a flat
      // piece: dividing the ulp-level residue by the span would
      // fabricate a tiny nonzero slope, and downstream crossing
      // searches against a genuinely flat curve would then place a
      // kink at an absurd abscissa (~|value| / noise) where the
      // noise has accumulated into a real divergence.
      const double noise = 64.0 * std::numeric_limits<double>::epsilon() *
                           (std::fabs(p1) + std::fabs(value_after)) / run;
      if (slope <= noise) {
        slope = 0.0;
      } else if (slope_set != nullptr) {
        double best = slope;
        double best_d = kInf;
        for (const double cand : *slope_set) {
          const double d = std::fabs(slope - cand);
          if (d <= noise + 1e-12 * std::fabs(cand) && d < best_d) {
            best = cand;
            best_d = d;
          }
        }
        slope = best;
      }
    }
    v_at[i] = value_at;
    v_after[i] = value_after;
    v_slope[i] = slope;
  }
  // Phase 2 — assembly with the monotonicity guard, which chains each
  // breakpoint to its predecessor.
  std::vector<Segment> segs;
  segs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = candidates[i];
    double value_at = v_at[i];
    double value_after = v_after[i];
    // Guard against rounding-induced monotonicity violations.
    if (!segs.empty()) {
      Segment& p = segs.back();
      const double left_limit =
          p.value_after == kInf ? kInf
                                : p.value_after + p.slope * (x - p.x);
      if (left_limit != kInf && value_at < left_limit) {
        if (value_at >= p.value_after) {
          // The previous piece overextends: its breakpoint rounded past
          // the true crossing (or a kink within the dedup tolerance of
          // this candidate was dropped), so the stored slope runs above
          // the exact value here. The value is the trustworthy quantity —
          // rechord the previous piece down to it instead of lifting the
          // value to the stale extrapolation (which would propagate the
          // overshoot into the whole tail via this same guard).
          p.slope = (value_at - p.value_after) / (x - p.x);
        } else {
          value_at = left_limit;
          value_after = std::max(value_after, value_at);
        }
      }
    }
    segs.push_back(Segment{x, value_at, value_after, v_slope[i]});
  }
  return Curve(std::move(segs));
}

}  // namespace streamcalc::minplus::detail
