// Unified result type for deterministic and probabilistic bounds.
//
// Historically every bound in the library was a bare quantity (a
// util::Duration delay, a util::DataSize backlog) and the only possible
// semantics was "worst case, always". The stochastic tier (src/stochcalc)
// adds Chernoff bounds of the form P(delay > d) <= epsilon, which are a
// different *kind* of statement about the same quantity. BoundReport makes
// the kind explicit so a value can never be silently reinterpreted: every
// analysis entry point returns the quantity together with
//
//   * kind      — worst_case (holds surely) or violation_prob (holds with
//                 probability >= 1 - epsilon);
//   * epsilon   — the violation probability (0 for worst-case bounds);
//   * provenance — which derivation produced the number (deviation kernels,
//                 Chernoff/MGF optimization, or the deterministic clamp that
//                 caps a stochastic bound by the sure bound), plus the
//                 optimizing theta for MGF-based results.
//
// Provenance is plain-old-data on purpose: reports flow through the serve
// admission hot path, which must not allocate per decision.
//
// There is no implicit conversion to the quantity: read `.value`, and check
// `.kind` when the bound may be probabilistic.
#pragma once

#include "util/units.hpp"

namespace streamcalc::netcalc {

/// What a bound asserts about its quantity.
enum class BoundKind {
  kWorstCase,      ///< holds on every admissible behaviour
  kViolationProb,  ///< P(quantity > value) <= epsilon
};

const char* to_string(BoundKind k);

/// Which derivation produced the number.
enum class BoundMethod {
  kDeviation,  ///< min-plus horizontal/vertical deviation kernels
  kChernoff,   ///< MGF envelope + Chernoff bound, theta-optimized
  kDetClamp,   ///< stochastic request answered by the (tighter) sure bound
};

const char* to_string(BoundMethod m);

/// POD provenance attached to every report (no strings: serve hot path).
struct BoundProvenance {
  BoundMethod method = BoundMethod::kDeviation;
  /// Optimizing MGF parameter (1/bytes) for kChernoff; 0 otherwise.
  double theta = 0.0;
};

/// A bound on quantity type Q (util::Duration, util::DataSize, ...).
template <class Q>
struct BoundReport {
  Q value{};
  BoundKind kind = BoundKind::kWorstCase;
  double epsilon = 0.0;
  BoundProvenance provenance{};

  /// Wraps a quantity as a sure worst-case bound from the deviation
  /// kernels — the exact value the pre-redesign API returned.
  static BoundReport worst_case(Q v) {
    BoundReport r;
    r.value = v;
    return r;
  }

  /// Wraps a quantity as P(quantity > value) <= eps.
  static BoundReport violation_prob(Q v, double eps, BoundProvenance prov) {
    BoundReport r;
    r.value = v;
    r.kind = BoundKind::kViolationProb;
    r.epsilon = eps;
    r.provenance = prov;
    return r;
  }
};

using DelayReport = BoundReport<util::Duration>;
using BacklogReport = BoundReport<util::DataSize>;

}  // namespace streamcalc::netcalc
