// The independent certificate checker (DESIGN.md §9).
//
// check_certificate() re-establishes a BoundCertificate from first
// principles and reports every discrepancy as an NC6xx diagnostic:
//
//   NC601 (error)   the claimed bound is below the exact definitional
//                   deviation, or claims divergence that does not hold;
//   NC602 (error)   a derivation side condition fails: malformed curve
//                   structure, non-causal component service, end-to-end
//                   service exceeding a component, wrong concatenated tail
//                   slope, or under-accumulated latency;
//   NC603 (error)   the witness is missing, does not attain the supremum,
//                   or the claimed bound is not the canonical upward
//                   rounding of the witnessed supremum (catches +-1 ulp
//                   perturbations in either direction);
//   NC605 (warning) the optimized double kernel's result disagrees with
//                   the certified value beyond rounding noise — the
//                   certificate itself is sound, but the kernel is not.
//
// Independence: the checker evaluates curves and pseudo-inverses in exact
// rational arithmetic (certify/exact.*) using only the definitions; it
// never calls minplus::operations convolution/deconvolution or the double
// deviation kernels. Derivation *side conditions* use the library's 1e-9
// relative modeling tolerance (the same slack Curve::validate grants),
// because component curves were assembled in double arithmetic; the bound
// domination and canonical-rounding checks are exact with no tolerance.
#pragma once

#include "certify/certificate.hpp"
#include "certify/exact.hpp"
#include "diagnostics/diagnostic.hpp"

namespace streamcalc::certify {

/// Re-checks one certificate. The returned report is clean() iff the
/// certificate is accepted.
diagnostics::LintReport check_certificate(const BoundCertificate& cert);

/// Checks every certificate and merges the reports. Every check runs on
/// every certificate; a curve several certificates share is converted to
/// exact form once per call.
diagnostics::LintReport check_certificates(
    const std::vector<BoundCertificate>& certs);
/// The same, with the exact forms read from and added to `exact`, so an
/// emit-then-check call converts each curve once (certify_pipeline).
diagnostics::LintReport check_certificates(
    const std::vector<BoundCertificate>& certs, ExactCurveTable& exact);

}  // namespace streamcalc::certify
