// The per-node load recurrence behind the paper's stability condition: the
// input-normalized sustained arrival at each stage must stay below that
// stage's guaranteed rate. It is written once, over intervals, and read by
// lint (NC101, NC102, NC305 at a point) and by the interval stability
// certificate (NC604 over a box, src/certify/interval.hpp).
//
// The walk mirrors DagModel's volume propagation. vol_in[i] is the
// worst-case bytes at node i's input per source byte; the sustained arrival
// propagates source-normalized, and each node clips its output at its own
// guaranteed rate:
//
//   rate  = basis_rate(node) * scale / vol_in
//   arrival' = sum over incoming (fraction * min(arrival, rate))
//
// Both endpoints run the same expression, so a zero-width interval gives
// the pointwise doubles bit for bit (base * 1.0 and min of equal endpoints
// are exact). A chain is its one-path DAG (propagate_chain_load): there the
// DAG walk does the chain's multiplications and mins in the chain's order
// (0.0 + 1.0 * x and 1.0 * x are exact).
#pragma once

#include <cstddef>
#include <vector>

#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"

namespace streamcalc::diagnostics {

/// A closed interval [lo, hi]. Degenerate (lo == hi) is allowed.
struct Interval {
  double lo = 1.0;
  double hi = 1.0;

  static Interval point(double v) { return {v, v}; }
};

/// The load at one node the entries reach.
struct NodeLoad {
  std::size_t node = 0;    ///< index into the node vector
  Interval arrival;        ///< sustained arrival, bytes/s, input-normalized
  Interval rate;           ///< guaranteed rate, bytes/s, input-normalized
  std::size_t fan_in = 0;  ///< entries plus edges feeding the node
};

/// Walks the DAG (`nodes`, `entries`, `edges`) in the topological `order`
/// with the source offering `source_rate` bytes/s and node i's basis rate
/// scaled by `service_scale[i]` (all 1 when empty). Returns one row per
/// node the entries reach, in `order`.
std::vector<NodeLoad> propagate_load(
    const std::vector<netcalc::NodeSpec>& nodes,
    const std::vector<netcalc::DagEdge>& entries,
    const std::vector<netcalc::DagEdge>& edges,
    const std::vector<std::size_t>& order, netcalc::RateBasis basis,
    Interval source_rate, const std::vector<Interval>& service_scale = {});

/// propagate_load on the chain's one-path DAG: one entry of fraction 1 into
/// node 0, and an edge of fraction 1 from each node i to node i + 1.
std::vector<NodeLoad> propagate_chain_load(
    const std::vector<netcalc::NodeSpec>& nodes, netcalc::RateBasis basis,
    Interval source_rate, const std::vector<Interval>& service_scale = {});

}  // namespace streamcalc::diagnostics
