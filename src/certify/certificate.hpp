// Proof-carrying bound certificates (DESIGN.md §9).
//
// A BoundCertificate records everything an independent checker needs to
// re-establish one delay or backlog bound from first principles: the
// arrival and service curves the bound was computed from, the claimed
// bound itself, a witness time at which the deviation is attained, and —
// when the service curve was assembled by concatenation — the component
// service curves it was derived from.
//
// The claimed bound is *emitted* by this layer, not copied from the double
// kernel: make_certificate computes the exact definitional deviation on
// rationals and rounds it up onto the double grid (Rational::
// round_up_double), so the certified number never undercuts the exact
// supremum. The kernel's double result rides along as `kernel_value` and
// is cross-checked against the certified value (NC605) — a divergence
// there means a kernel bug even when the certificate itself is sound.
#pragma once

#include <string>
#include <vector>

#include "minplus/curve.hpp"

namespace streamcalc::certify {

enum class BoundKind {
  kDelay,    ///< horizontal deviation, seconds
  kBacklog,  ///< vertical deviation, input-normalized bytes
};

const char* to_string(BoundKind k);

/// A self-contained, independently checkable claim about one bound.
struct BoundCertificate {
  BoundKind kind = BoundKind::kDelay;
  /// Where the bound applies: "e2e", "node <name>", "path a->b->c".
  std::string context;

  /// The certified bound (seconds or bytes); +inf for divergent bounds.
  double claimed = 0.0;
  /// What the optimized double kernel computed for the same bound.
  double kernel_value = 0.0;

  /// Witness time t* at which the exact deviation attains the supremum.
  /// Always present for finite claims emitted by make_certificate.
  bool has_witness = false;
  double witness_time = 0.0;

  minplus::Curve arrival;
  minplus::Curve service;
  /// When non-empty: the per-stage service curves the end-to-end `service`
  /// was concatenated from. The checker verifies the concatenation's side
  /// conditions (domination, tail slope, latency accumulation) against
  /// these.
  std::vector<minplus::Curve> components;

  /// One-line summary for logs and failure messages.
  std::string describe() const;
};

class ExactCurveTable;

/// Emits a certificate for the bound of `arrival` against `service`:
/// computes the exact definitional deviation, rounds it up onto the double
/// grid, and records the witness. `kernel_value` is the double kernel's
/// result for the same bound, recorded for cross-checking only.
BoundCertificate make_certificate(BoundKind kind, std::string context,
                                  const minplus::Curve& arrival,
                                  const minplus::Curve& service,
                                  double kernel_value,
                                  std::vector<minplus::Curve> components = {});
/// The same, reading the curves' exact forms from `exact` (certify/exact.hpp),
/// so certificates of one call that share a curve convert it once.
BoundCertificate make_certificate(ExactCurveTable& exact, BoundKind kind,
                                  std::string context,
                                  const minplus::Curve& arrival,
                                  const minplus::Curve& service,
                                  double kernel_value,
                                  std::vector<minplus::Curve> components = {});

}  // namespace streamcalc::certify
