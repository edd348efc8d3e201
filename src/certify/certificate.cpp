#include "certify/certificate.hpp"

#include <limits>
#include <utility>

#include "certify/exact.hpp"
#include "util/format.hpp"

namespace streamcalc::certify {

const char* to_string(BoundKind k) {
  switch (k) {
    case BoundKind::kDelay:
      return "delay";
    case BoundKind::kBacklog:
      return "backlog";
  }
  return "?";
}

std::string BoundCertificate::describe() const {
  std::string out = std::string(to_string(kind)) + " bound at " + context +
                    ": " + util::format_significant(claimed);
  out += kind == BoundKind::kDelay ? " s" : " B";
  if (has_witness) {
    out += " (witness t* = " + util::format_significant(witness_time) + " s";
    if (!components.empty()) {
      out += ", " + std::to_string(components.size()) + " components";
    }
    out += ")";
  }
  return out;
}

BoundCertificate make_certificate(BoundKind kind, std::string context,
                                  const minplus::Curve& arrival,
                                  const minplus::Curve& service,
                                  double kernel_value,
                                  std::vector<minplus::Curve> components) {
  ExactCurveTable exact;
  return make_certificate(exact, kind, std::move(context), arrival, service,
                          kernel_value, std::move(components));
}

BoundCertificate make_certificate(ExactCurveTable& exact, BoundKind kind,
                                  std::string context,
                                  const minplus::Curve& arrival,
                                  const minplus::Curve& service,
                                  double kernel_value,
                                  std::vector<minplus::Curve> components) {
  BoundCertificate cert;
  cert.kind = kind;
  cert.context = std::move(context);
  cert.kernel_value = kernel_value;
  cert.arrival = arrival;
  cert.service = service;
  cert.components = std::move(components);

  const ExactBound& dev =
      exact.deviation(kind, exact.get(arrival), exact.get(service));
  if (dev.infinite) {
    cert.claimed = std::numeric_limits<double>::infinity();
  } else {
    cert.claimed = dev.value.round_up_double();
    cert.has_witness = true;
    // Witness abscissae are sums/inverses of dyadic breakpoints; rounding
    // up keeps the stored double deterministic. The checker re-evaluates
    // the deviation at this (exactly converted) time.
    cert.witness_time = dev.witness.round_up_double();
  }
  return cert;
}

}  // namespace streamcalc::certify
