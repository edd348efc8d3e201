#include "certify/interval.hpp"

#include <cmath>
#include <string>

#include "util/error.hpp"
#include "util/format.hpp"

namespace streamcalc::certify {

namespace {

using diagnostics::Diagnostic;
using diagnostics::Severity;
using netcalc::NodeSpec;

void validate_interval(const Interval& iv, const char* what) {
  util::require(iv.lo <= iv.hi,
                std::string(what) + " interval must have lo <= hi");
  util::require(std::isfinite(iv.lo) && std::isfinite(iv.hi),
                std::string(what) + " interval must be finite");
  util::require(iv.lo > 0.0,
                std::string(what) + " interval must be positive");
}

void validate_box(const ParamBox& box, std::size_t node_count) {
  validate_interval(box.source_rate, "source rate");
  util::require(box.service_scale.empty() ||
                    box.service_scale.size() == node_count,
                "ParamBox node count does not match the model");
  for (const Interval& scale : box.service_scale) {
    validate_interval(scale, "service scale");
  }
}

/// The certificate over the rows of the one load recurrence: a node's rho
/// interval and, on violation, the NC604 finding with the corner of the
/// box that attains it. rho is monotone up in the sustained arrival and
/// down in the own service scale, so its endpoints are box corners.
IntervalCertificate certificate(const std::vector<NodeSpec>& nodes,
                                const std::vector<netcalc::NodeLoad>& rows,
                                const netcalc::SourceSpec& source,
                                const ParamBox& box) {
  IntervalCertificate cert;
  cert.stable_everywhere = true;
  for (const netcalc::NodeLoad& row : rows) {
    if (!(row.rate.lo > 0.0 && std::isfinite(row.rate.lo))) continue;
    const std::string& name = nodes[row.node].name;
    const double rho_lo = row.arrival.lo / row.rate.hi;
    const double rho_hi = row.arrival.hi / row.rate.lo;
    cert.nodes.push_back(NodeStability{name, rho_lo, rho_hi});
    if (rho_hi < 1.0) continue;
    const bool whole_box = rho_lo >= 1.0;
    if (whole_box) cert.unstable_everywhere = true;
    cert.stable_everywhere = false;
    const double scale_lo =
        box.service_scale.empty() ? 1.0 : box.service_scale[row.node].lo;
    const std::string face =
        "source.rate = " + util::format_significant(box.source_rate.hi) +
        " B/s, " + name +
        ".service_scale = " + util::format_significant(scale_lo) +
        ", upstream service scales at hi";
    if (cert.violating_face.empty()) cert.violating_face = face;
    std::string msg = std::string(whole_box ? "every point" : "part") +
                      " of the parameter box is unstable: rho ranges over [" +
                      util::format_significant(rho_lo) + ", " +
                      util::format_significant(rho_hi) +
                      "] and reaches 1 at the corner (" + face + ")";
    if (source.job_volume.is_finite()) {
      msg += "; the finite job volume keeps finite-horizon bounds usable";
    }
    cert.report.add(Diagnostic{
        "NC604", Severity::kWarning, name, std::move(msg),
        whole_box ? "shrink the source-rate interval below the bottleneck"
                  : "split the box at the stability boundary to isolate "
                    "the safe region"});
  }
  return cert;
}

}  // namespace

ParamBox ParamBox::at(const netcalc::SourceSpec& source,
                      std::size_t node_count) {
  ParamBox box;
  box.source_rate = Interval::point(source.rate.in_bytes_per_sec());
  box.service_scale.assign(node_count, Interval{});
  return box;
}

IntervalCertificate certify_stability(const std::vector<NodeSpec>& nodes,
                                      const netcalc::SourceSpec& source,
                                      const netcalc::ModelPolicy& policy,
                                      const ParamBox& box) {
  return certify_stability_dag(netcalc::DagSpec::chain(nodes), source,
                               policy, box);
}

IntervalCertificate certify_stability_dag(const netcalc::DagSpec& dag,
                                          const netcalc::SourceSpec& source,
                                          const netcalc::ModelPolicy& policy,
                                          const ParamBox& box) {
  const std::vector<std::size_t> order = dag.validate();
  validate_box(box, dag.nodes.size());
  return certificate(dag.nodes,
                     netcalc::propagate_load(
                         dag, order, policy.service_basis,
                         netcalc::entry_rates(dag.entries, box.source_rate),
                         box.service_scale),
                     source, box);
}

}  // namespace streamcalc::certify
