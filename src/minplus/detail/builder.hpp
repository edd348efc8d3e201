// Internal: helpers shared by the operation implementations: the branch
// envelope folds of the general kernels, the tolerant tail-slope
// divergence test and the rechord repair for translated breakpoints. The
// pointwise operations build no candidate grid of probe points: they run
// on the segment sweep (merge.hpp). Not part of the public API.
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

/// The value a source breakpoint at x0 with left limit `left`, point value
/// `at` and right limit `after` takes once translated to x = fl(x0 + d).
/// The translated curve's value at x is its source's at exactly x - d,
/// and the rounding error of the sum (Knuth's two-sum, exact for finite
/// operands) tells which side of x0 that is: the right limit where x
/// landed past x0 + d, the left limit where it fell short, the point value
/// where the sum is exact.
inline double translated_value(double x0, double d, double x, double left,
                               double at, double after) {
  const double dd = x - x0;
  const double err = (x0 - (x - dd)) + (d - dd);  // (x0 + d) - x, exactly
  return err < 0.0 ? after : err > 0.0 ? left : at;
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

}  // namespace streamcalc::minplus::detail
