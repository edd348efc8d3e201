// Interval stability certification: abstract interpretation of the nclint
// stability recurrence over boxes of spec parameters (DESIGN.md §9).
//
// A ParamBox describes uncertainty in the model inputs: the source rate
// and, per node, a multiplicative scale interval on the service rate.
// certify_stability() runs the one load recurrence that lint runs at a
// point (netcalc/load.hpp) on the box's intervals, and reads
// rho = sustained / rate_norm from its rows. Because each parameter enters
// a given node's utilization monotonically (source rate and upstream
// service scales push rho up, the node's own service scale pushes it
// down), interval propagation here is *tight*: the rho interval of every
// node is exactly its range over the box, so the certificate is a proof,
// not an over-approximation. At a degenerate (zero-width) box the verdict
// coincides with nclint's per-point NC101 decision: both read the same
// rows.
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
// Utilization, hence stability of these models, depends only on rates:
// bursts and latencies shift bound magnitudes, not finiteness, so the box
// has no interval for them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "diagnostics/diagnostic.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/load.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"

namespace streamcalc::certify {

using netcalc::Interval;

/// The parameter box: an absolute interval for the source rate, and a scale
/// interval on each node's basis-selected service rate. `service_scale`
/// may be empty (all scales 1) or must match the model's node count.
struct ParamBox {
  Interval source_rate;  ///< bytes/sec, absolute
  std::vector<Interval> service_scale;

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

/// Certifies stability of a chain pipeline over `box`: the DAG
/// certificate below on the chain's one-path DAG (DagSpec::chain).
IntervalCertificate certify_stability(
    const std::vector<netcalc::NodeSpec>& nodes,
    const netcalc::SourceSpec& source, const netcalc::ModelPolicy& policy,
    const ParamBox& box);

/// Certifies stability of a DAG over `box` (splitter fractions scale both
/// endpoints; joins sum the incoming intervals).
IntervalCertificate certify_stability_dag(const netcalc::DagSpec& dag,
                                          const netcalc::SourceSpec& source,
                                          const netcalc::ModelPolicy& policy,
                                          const ParamBox& box);

}  // namespace streamcalc::certify
