#include "certify/checker.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "certify/exact.hpp"
#include "util/format.hpp"
#include "util/rational.hpp"

namespace streamcalc::certify {

namespace {

using diagnostics::Diagnostic;
using diagnostics::LintReport;
using diagnostics::Severity;
using util::Rational;

/// The library's relative modeling tolerance (Curve::validate grants the
/// same slack), as an exact rational around `scale`.
Rational rel_tol(double scale) {
  if (!std::isfinite(scale)) scale = 0.0;
  return Rational::from_double(1e-9 * (1.0 + std::fabs(scale)));
}

/// a <= b + rel_tol(b), with +inf as absorbing top. The tolerance is
/// built only when the exact comparison fails; the verdict is the same.
bool leq_tol(const ExtRat& a, const ExtRat& b) {
  if (b.is_inf()) return true;
  if (a.is_inf()) return false;
  if (a.finite() <= b.finite()) return true;
  return a.finite() <= b.finite() + rel_tol(b.approx());
}

/// |a - b| <= rel_tol(b), with inf == inf. Equal values skip building the
/// tolerance.
bool eq_tol(const ExtRat& a, const ExtRat& b) {
  if (a.is_inf() || b.is_inf()) return a.is_inf() && b.is_inf();
  if (a.finite() == b.finite()) return true;
  const Rational d = a.finite() - b.finite();
  const Rational t = rel_tol(b.approx());
  return (d.is_negative() ? -d : d) <= t;
}

void add_error(LintReport& report, const char* code,
               const std::string& location, std::string message,
               std::string hint = "") {
  report.add(Diagnostic{code, Severity::kError, location, std::move(message),
                        std::move(hint)});
}

/// Names a certificate curve in diagnostics: "arrival", "service" or
/// "component <i> service". The string is built only for a diagnostic.
struct CurveName {
  const char* fixed = nullptr;  ///< the name; null for a component
  std::size_t component = 0;    ///< the component index when fixed is null
  std::string str() const {
    return fixed != nullptr
               ? std::string(fixed)
               : "component " + std::to_string(component) + " service";
  }
};

/// Exact re-validation of the Segment representation contract
/// (minplus/curve.hpp) on the converted curve: a checker must not trust
/// that a mutated curve still honors the invariants the double validator
/// enforced.
void check_structure(const ExactCurve& exact, const CurveName& which,
                     const std::string& location, LintReport& report) {
  const auto& e = exact.segments();
  if (e.empty()) {
    add_error(report, "NC602", location,
              which.str() + " curve has no segments");
    return;
  }
  if (!e.front().x.is_zero()) {
    add_error(report, "NC602", location,
              which.str() + " curve does not start at t = 0");
  }
  bool reached_inf = false;
  for (std::size_t i = 0; i < e.size(); ++i) {
    if (i > 0 && !(e[i - 1].x < e[i].x)) {
      add_error(report, "NC602", location,
                which.str() +
                    " curve breakpoints are not strictly increasing");
      return;
    }
    if (e[i].slope.is_negative() || !(e[i].value_at <= e[i].value_after)) {
      add_error(report, "NC602", location,
                which.str() +
                    " curve decreases within a segment (not wide-sense "
                    "increasing)");
      return;
    }
    if (i > 0) {
      // Cross-breakpoint monotonicity, with the validator's 1e-9 slack:
      // the left limit must not exceed the value at the breakpoint.
      const ExtRat left = exact.limits(e[i].x).left;
      if (!leq_tol(left, e[i].value_at)) {
        add_error(report, "NC602", location,
                  which.str() + " curve jumps downward at t = " +
                      e[i].x.to_string());
        return;
      }
    }
    if (reached_inf && !e[i].value_at.is_inf()) {
      add_error(report, "NC602", location,
                which.str() + " curve returns from +inf to a finite value");
      return;
    }
    reached_inf = reached_inf || e[i].value_after.is_inf();
  }
}

PointDev exact_dev_at(const BoundCertificate& cert, const ExactCurve& f,
                      const ExactCurve& g, const Rational& t) {
  return cert.kind == BoundKind::kDelay ? exact_horizontal_dev_at(f, g, t)
                                        : exact_vertical_dev_at(f, g, t);
}

/// The claimed-bound audit: domination, canonical rounding, witness. The
/// exact supremum comes from the table, so a check after the emitter reads
/// the value the emitter computed; the audit itself always runs.
void check_bound(const BoundCertificate& cert, const ExactCurve& f,
                 const ExactCurve& g, ExactCurveTable& exact,
                 LintReport& report) {
  const ExactBound& dev = exact.deviation(cert.kind, f, g);
  const bool claim_inf = std::isinf(cert.claimed);
  if (claim_inf) {
    if (!dev.infinite) {
      add_error(report, "NC601", cert.context,
                std::string(to_string(cert.kind)) +
                    " bound claims divergence, but the exact definitional "
                    "deviation is finite (" +
                    dev.value.to_string() + ")");
    }
    return;
  }
  if (dev.infinite) {
    add_error(report, "NC601", cert.context,
              std::string(to_string(cert.kind)) + " bound claims " +
                  util::format_significant(cert.claimed) +
                  ", but the exact definitional deviation diverges");
    return;
  }
  const Rational claim = Rational::from_double(cert.claimed);
  if (claim < dev.value) {
    add_error(report, "NC601", cert.context,
              std::string(to_string(cert.kind)) + " bound " +
                  util::format_significant(cert.claimed) +
                  " is below the exact definitional deviation " +
                  dev.value.to_string() + " (~" +
                  util::format_significant(dev.value.approx()) + ")",
              "the optimized kernel under-approximated; this bound is "
              "unsound");
    return;
  }
  // Tightness: the claim must be the canonical upward rounding of the
  // exact supremum — anything larger was not produced by the emitter and
  // cannot be audited against the witness. This is exact, so a +1 ulp
  // perturbation is rejected here while -1 ulp fails domination above.
  if (cert.claimed != dev.value.round_up_double()) {
    add_error(report, "NC603", cert.context,
              std::string(to_string(cert.kind)) + " bound " +
                  util::format_significant(cert.claimed) +
                  " is not the canonical rounding of the exact supremum " +
                  dev.value.to_string());
    return;
  }
  if (!cert.has_witness) {
    add_error(report, "NC603", cert.context,
              std::string(to_string(cert.kind)) +
                  " certificate carries no witness for a finite bound");
    return;
  }
  if (!std::isfinite(cert.witness_time) || cert.witness_time < 0.0) {
    add_error(report, "NC603", cert.context,
              "witness time is not a finite non-negative value");
    return;
  }
  // The witness must attain the supremum. The recorded time is the exact
  // witness rounded onto the double grid, so allow the modeling tolerance.
  const PointDev at = exact_dev_at(cert, f, g,
                                   Rational::from_double(cert.witness_time));
  const Rational attained =
      !at.defined || at.infinite ? Rational(0) : at.value;
  if (at.infinite ||
      !leq_tol(ExtRat(dev.value), ExtRat(Rational::max(attained, Rational(0))))) {
    add_error(report, "NC603", cert.context,
              "witness t* = " + util::format_significant(cert.witness_time) +
                  " attains deviation " + attained.to_string() +
                  ", not the claimed supremum " + dev.value.to_string());
  }
}

/// Concatenation derivations one check_certificates call found clean, each
/// as the table's curves: the end-to-end service, then its components.
/// The e2e delay and backlog certificates of a pipeline carry the same
/// derivation; the second one is not checked again.
using CleanDerivations = std::set<std::vector<const ExactCurve*>>;

/// Derivation side conditions for a concatenated service curve, given the
/// converted end-to-end `service` curve. A derivation is remembered as
/// clean only when every check below ran and reported nothing; the early
/// return after a failed structure check (or a check_bound error already
/// in `report`) leaves it to be checked again.
void check_derivation(const BoundCertificate& cert,
                      const ExactCurve& service, ExactCurveTable& exact,
                      CleanDerivations& clean, LintReport& report) {
  if (cert.components.empty()) return;

  std::vector<const ExactCurve*> key;
  key.reserve(cert.components.size() + 1);
  key.push_back(&service);
  for (const minplus::Curve& c : cert.components) {
    key.push_back(&exact.get(c));
  }
  if (clean.count(key) != 0) return;
  const std::size_t findings = report.diagnostics().size();

  const std::span<const ExactCurve* const> comps(key.begin() + 1, key.end());
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const CurveName which{nullptr, i};
    const ExactCurve& c = *comps[i];
    check_structure(c, which, cert.context, report);
    // value_right(0) covers both a positive value at 0 and an upward jump
    // immediately after it — either way the stage would emit output in
    // (0, eps) with no input yet.
    if (c.value_right(Rational(0)) > ExtRat(Rational(0))) {
      add_error(report, "NC602", cert.context,
                which.str() +
                    " is non-causal (positive at t = 0+): a service "
                    "guarantee cannot deliver output before input");
    }
  }
  if (!report.clean()) return;

  // (1) Concatenation never promises more than any single stage:
  // beta_e2e <= beta_i pointwise, checked at every breakpoint of either
  // curve (value, right and left limits) plus a probe past both tails.
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const ExactCurve& c = *comps[i];
    std::vector<Rational> ts;
    for (const ExactSegment& s : service.segments()) ts.push_back(s.x);
    for (const ExactSegment& s : c.segments()) ts.push_back(s.x);
    ts.push_back(Rational::max(service.last_breakpoint(),
                               c.last_breakpoint()) +
                 Rational(1));
    bool ok = leq_tol(service.tail_slope(), c.tail_slope());
    for (const Rational& t : ts) {
      if (!ok) break;
      const ExactCurve::Limits e2e = service.limits(t);
      const ExactCurve::Limits stage = c.limits(t);
      ok = leq_tol(e2e.value, stage.value) &&
           leq_tol(e2e.right, stage.right) &&
           (t.is_zero() || leq_tol(e2e.left, stage.left));
    }
    if (!ok) {
      add_error(report, "NC602", cert.context,
                "end-to-end service curve exceeds component " +
                    std::to_string(i) +
                    ": a concatenation cannot out-promise its stages");
    }
  }

  // (2) The concatenated long-term rate is the bottleneck's: tail slope of
  // the end-to-end curve equals the minimum component tail slope.
  ExtRat min_tail = ExtRat::infinity();
  for (const ExactCurve* c : comps) {
    if (c->tail_slope() < min_tail) min_tail = c->tail_slope();
  }
  if (!eq_tol(service.tail_slope(), min_tail)) {
    add_error(report, "NC602", cert.context,
              "end-to-end tail slope " + service.tail_slope().to_string() +
                  " does not match the bottleneck component tail slope " +
                  min_tail.to_string());
  }

  // (3) Latency accumulates: the end-to-end curve cannot become positive
  // before the sum of the component latencies ("pay bursts only once"
  // shortens bursts, never latencies).
  ExtRat latency_sum{Rational(0)};
  for (const ExactCurve* c : comps) {
    const ExtRat start = c->upper_inverse(ExtRat(Rational(0)));
    if (start.is_inf() || latency_sum.is_inf()) {
      latency_sum = ExtRat::infinity();
    } else {
      latency_sum = ExtRat(latency_sum.finite() + start.finite());
    }
  }
  const ExtRat e2e_start = service.upper_inverse(ExtRat(Rational(0)));
  if (!leq_tol(latency_sum, e2e_start)) {
    add_error(report, "NC602", cert.context,
              "end-to-end service becomes positive at t = " +
                  e2e_start.to_string() +
                  ", before the accumulated component latency " +
                  latency_sum.to_string());
  }
  if (report.diagnostics().size() == findings) clean.insert(std::move(key));
}

/// NC605: cross-check the double kernel's result against the certified
/// value. A mismatch does not invalidate the certificate (the certified
/// number is the exact one); it flags a kernel defect.
void check_kernel_agreement(const BoundCertificate& cert,
                            LintReport& report) {
  const bool claim_inf = std::isinf(cert.claimed);
  const bool kernel_inf = std::isinf(cert.kernel_value);
  bool agree;
  if (claim_inf || kernel_inf) {
    agree = claim_inf == kernel_inf;
  } else {
    agree = std::fabs(cert.kernel_value - cert.claimed) <=
            1e-6 * (1.0 + std::fabs(cert.claimed));
  }
  if (!agree) {
    report.add(Diagnostic{
        "NC605", Severity::kWarning, cert.context,
        std::string("double kernel computed ") +
            util::format_significant(cert.kernel_value) +
            " but the exact definitional " + to_string(cert.kind) +
            " bound certifies as " + util::format_significant(cert.claimed),
        "the certificate is sound; investigate the optimized kernel"});
  }
}

/// Every check on one certificate. The curve conversions and the exact
/// suprema come from (and go to) the call's table; a derivation already in
/// `clean` is not checked again.
LintReport check_one(const BoundCertificate& cert, ExactCurveTable& exact,
                     CleanDerivations& clean) {
  LintReport report;
  const ExactCurve& f = exact.get(cert.arrival);
  const ExactCurve& g = exact.get(cert.service);
  check_structure(f, CurveName{"arrival"}, cert.context, report);
  check_structure(g, CurveName{"service"}, cert.context, report);
  if (!report.clean()) return report;

  check_bound(cert, f, g, exact, report);
  check_derivation(cert, g, exact, clean, report);
  check_kernel_agreement(cert, report);
  return report;
}

}  // namespace

LintReport check_certificate(const BoundCertificate& cert) {
  ExactCurveTable exact;
  CleanDerivations clean;
  return check_one(cert, exact, clean);
}

LintReport check_certificates(const std::vector<BoundCertificate>& certs) {
  ExactCurveTable exact;
  return check_certificates(certs, exact);
}

LintReport check_certificates(const std::vector<BoundCertificate>& certs,
                              ExactCurveTable& exact) {
  LintReport report;
  CleanDerivations clean;
  for (const BoundCertificate& cert : certs) {
    report.merge(check_one(cert, exact, clean));
  }
  return report;
}

}  // namespace streamcalc::certify
