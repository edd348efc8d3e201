#include "certify/interval.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"
#include "util/format.hpp"

namespace streamcalc::certify {

namespace {

using diagnostics::Diagnostic;
using diagnostics::Severity;
using netcalc::DagEdge;
using netcalc::NodeSpec;

void validate_interval(const Interval& iv, const char* what,
                       bool positive_lo) {
  util::require(iv.lo <= iv.hi,
                std::string(what) + " interval must have lo <= hi");
  util::require(std::isfinite(iv.lo) && std::isfinite(iv.hi),
                std::string(what) + " interval must be finite");
  if (positive_lo) {
    util::require(iv.lo > 0.0,
                  std::string(what) + " interval must be positive");
  } else {
    util::require(iv.lo >= 0.0,
                  std::string(what) + " interval must be non-negative");
  }
}

void validate_box(const ParamBox& box, std::size_t node_count) {
  validate_interval(box.source_rate, "source rate", /*positive_lo=*/true);
  validate_interval(box.source_burst, "source burst", /*positive_lo=*/false);
  util::require(box.nodes.empty() || box.nodes.size() == node_count,
                "ParamBox node count does not match the model");
  for (const NodeBox& nb : box.nodes) {
    validate_interval(nb.service_scale, "service scale", /*positive_lo=*/true);
    validate_interval(nb.latency_scale, "latency scale", /*positive_lo=*/true);
  }
}

NodeBox node_box(const ParamBox& box, std::size_t i) {
  return box.nodes.empty() ? NodeBox{} : box.nodes[i];
}

/// Records one node's rho interval and, on violation, the NC604 finding
/// with the corner of the box that attains it.
void record_node(const NodeSpec& node, std::size_t index, double rho_lo,
                 double rho_hi, const ParamBox& box, bool finite_job,
                 IntervalCertificate& cert) {
  cert.nodes.push_back(NodeStability{node.name, rho_lo, rho_hi});
  if (rho_hi < 1.0) return;
  const bool whole_box = rho_lo >= 1.0;
  if (whole_box) cert.unstable_everywhere = true;
  cert.stable_everywhere = false;
  const std::string face =
      "source.rate = " + util::format_significant(box.source_rate.hi) +
      " B/s, " + node.name + ".service_scale = " +
      util::format_significant(node_box(box, index).service_scale.lo) +
      ", upstream service scales at hi";
  if (cert.violating_face.empty()) cert.violating_face = face;
  std::string msg = std::string(whole_box ? "every point" : "part") +
                    " of the parameter box is unstable: rho ranges over [" +
                    util::format_significant(rho_lo) + ", " +
                    util::format_significant(rho_hi) +
                    "] and reaches 1 at the corner (" + face + ")";
  if (finite_job) {
    msg += "; the finite job volume keeps finite-horizon bounds usable";
  }
  cert.report.add(Diagnostic{
      "NC604", Severity::kWarning, node.name, std::move(msg),
      whole_box ? "shrink the source-rate interval below the bottleneck"
                : "split the box at the stability boundary to isolate the "
                  "safe region"});
}

}  // namespace

ParamBox ParamBox::at(const netcalc::SourceSpec& source,
                      std::size_t node_count) {
  ParamBox box;
  box.source_rate = Interval::point(source.rate.in_bytes_per_sec());
  box.source_burst = Interval::point(source.burst.in_bytes());
  box.nodes.assign(node_count, NodeBox{});
  return box;
}

IntervalCertificate certify_stability(const std::vector<NodeSpec>& nodes,
                                      const netcalc::SourceSpec& source,
                                      const netcalc::ModelPolicy& policy,
                                      const ParamBox& box) {
  util::require(!nodes.empty(),
                "certify_stability requires at least one node");
  validate_box(box, nodes.size());
  IntervalCertificate cert;
  cert.stable_everywhere = true;

  // Interval version of lint_pipeline's stability recurrence. At a
  // degenerate box both endpoints evaluate the exact expression lint_load
  // sees (scaling by 1.0 and interval min are bitwise identities), which
  // is what makes the per-point agreement property exact rather than
  // approximate.
  double vol_worst = 1.0;
  double sus_lo = box.source_rate.lo;
  double sus_hi = box.source_rate.hi;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) vol_worst *= nodes[i - 1].volume.max;
    const double base =
        netcalc::basis_rate(nodes[i], policy.service_basis)
            .in_bytes_per_sec();
    const NodeBox nb = node_box(box, i);
    const double rn_lo = base * nb.service_scale.lo / vol_worst;
    const double rn_hi = base * nb.service_scale.hi / vol_worst;
    if (rn_lo > 0.0 && std::isfinite(rn_lo)) {
      // rho is monotone up in the sustained arrival and down in the own
      // service scale, so these endpoints are attained at box corners.
      record_node(nodes[i], i, sus_lo / rn_hi, sus_hi / rn_lo, box,
                  source.job_volume.is_finite(), cert);
    }
    sus_lo = std::min(sus_lo, rn_lo);
    sus_hi = std::min(sus_hi, rn_hi);
  }
  return cert;
}

IntervalCertificate certify_stability_dag(const netcalc::DagSpec& dag,
                                          const netcalc::SourceSpec& source,
                                          const netcalc::ModelPolicy& policy,
                                          const ParamBox& box) {
  dag.validate();
  validate_box(box, dag.nodes.size());
  IntervalCertificate cert;
  cert.stable_everywhere = true;

  const std::size_t n = dag.nodes.size();
  std::vector<double> vol_in(n, 0.0);
  std::vector<double> vol_out(n, 0.0);
  std::vector<double> thru_in_lo(n, 0.0);
  std::vector<double> thru_in_hi(n, 0.0);
  std::vector<double> thru_out_lo(n, 0.0);
  std::vector<double> thru_out_hi(n, 0.0);
  for (const DagEdge& e : dag.entries) {
    vol_in[e.to] += e.fraction;
    thru_in_lo[e.to] += e.fraction * box.source_rate.lo;
    thru_in_hi[e.to] += e.fraction * box.source_rate.hi;
  }
  for (std::size_t i : dag.topological_order()) {
    for (const DagEdge& e : dag.edges) {
      if (e.to == i) {
        vol_in[i] += e.fraction * vol_out[e.from];
        thru_in_lo[i] += e.fraction * thru_out_lo[e.from];
        thru_in_hi[i] += e.fraction * thru_out_hi[e.from];
      }
    }
    if (vol_in[i] <= 0.0) continue;
    vol_out[i] = vol_in[i] * dag.nodes[i].volume.max;
    const double base =
        netcalc::basis_rate(dag.nodes[i], policy.service_basis)
            .in_bytes_per_sec();
    const NodeBox nb = node_box(box, i);
    const double rn_lo = base * nb.service_scale.lo / vol_in[i];
    const double rn_hi = base * nb.service_scale.hi / vol_in[i];
    if (rn_lo > 0.0 && std::isfinite(rn_lo)) {
      record_node(dag.nodes[i], i, thru_in_lo[i] / rn_hi,
                  thru_in_hi[i] / rn_lo, box,
                  source.job_volume.is_finite(), cert);
    }
    thru_out_lo[i] = std::min(thru_in_lo[i], rn_lo);
    thru_out_hi[i] = std::min(thru_in_hi[i], rn_hi);
  }
  return cert;
}

}  // namespace streamcalc::certify
