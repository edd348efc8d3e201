// Interval stability certification: abstract interpretation of the nclint
// stability recurrence over boxes of spec parameters (DESIGN.md §9).
//
// A ParamBox describes uncertainty in the model inputs — the source
// rate/burst and, per node, multiplicative scale intervals on the service
// rate and latency. certify_stability() propagates *interval* sustained
// arrival rates through the chain or DAG using exactly the recurrence
// diagnostics::lint_pipeline / lint_dag evaluates pointwise:
//
//   rate_norm = basis_rate(node) * scale / vol;  rho = sustained / rate_norm
//   sustained' = min(sustained, rate_norm)
//
// Because each parameter enters a given node's utilization monotonically
// (source rate and upstream service scales push rho up, the node's own
// service scale pushes it down), interval propagation here is *tight*: the
// rho interval of every node is exactly its range over the box, so the
// certificate is a proof, not an over-approximation. At a degenerate
// (zero-width) box the verdict coincides with nclint's per-point NC101
// decision — the property suite pins this agreement.
//
// Verdicts:
//   * stable everywhere  — rho_hi < 1 for all nodes: every model in the
//     box has finite asymptotic delay/backlog bounds (utilization < 1);
//   * violated           — some node has rho_hi >= 1: the certificate
//     names the violating face, i.e. the corner of the box (source rate
//     high, that node's service scale low, upstream scales high) that
//     attains the violation, and whether the *entire* box is unstable
//     (rho_lo >= 1) or only part of it.
//
// Burst and latency intervals are validated and carried in the box for
// completeness; utilization — hence stability of these models — depends
// only on rates, so they do not influence the verdict (they shift bound
// magnitudes, not finiteness).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "diagnostics/diagnostic.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"

namespace streamcalc::certify {

/// A closed interval [lo, hi]. Degenerate (lo == hi) is allowed.
struct Interval {
  double lo = 1.0;
  double hi = 1.0;

  static Interval point(double v) { return {v, v}; }
  bool degenerate() const { return lo == hi; }
};

/// Per-node parameter uncertainty: multiplicative scales applied to the
/// basis-selected service rate and to the latency.
struct NodeBox {
  Interval service_scale{1.0, 1.0};
  Interval latency_scale{1.0, 1.0};
};

/// The parameter box: absolute intervals for the source, scale intervals
/// per node. `nodes` may be empty (all scales 1) or must match the model's
/// node count.
struct ParamBox {
  Interval source_rate;   ///< bytes/sec, absolute
  Interval source_burst{0.0, 0.0};  ///< bytes, absolute
  std::vector<NodeBox> nodes;

  /// A degenerate box at the spec's own parameters.
  static ParamBox at(const netcalc::SourceSpec& source,
                     std::size_t node_count);
};

/// Interval utilization of one node over the box.
struct NodeStability {
  std::string name;
  double rho_lo = 0.0;
  double rho_hi = 0.0;
};

/// The certification result for one box.
struct IntervalCertificate {
  /// rho_hi < 1 at every node: stability holds on the whole box.
  bool stable_everywhere = false;
  /// Some node has rho_lo >= 1: no point of the box is stable there.
  bool unstable_everywhere = false;
  /// Empty when stable_everywhere; otherwise the corner of the box that
  /// attains the worst utilization at the first violating node.
  std::string violating_face;
  std::vector<NodeStability> nodes;
  /// NC604 findings (warnings) for every violating node; clean iff
  /// stable_everywhere.
  diagnostics::LintReport report;
};

/// Certifies stability of a chain pipeline over `box`.
IntervalCertificate certify_stability(
    const std::vector<netcalc::NodeSpec>& nodes,
    const netcalc::SourceSpec& source, const netcalc::ModelPolicy& policy,
    const ParamBox& box);

/// Certifies stability of a DAG over `box`, propagating interval arrivals
/// along the topological order (splitter fractions scale both endpoints;
/// joins sum the incoming intervals).
IntervalCertificate certify_stability_dag(const netcalc::DagSpec& dag,
                                          const netcalc::SourceSpec& source,
                                          const netcalc::ModelPolicy& policy,
                                          const ParamBox& box);

}  // namespace streamcalc::certify
