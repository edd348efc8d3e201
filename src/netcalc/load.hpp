// The per-node load recurrence behind the paper's stability condition and
// its job-ratio collection wait: the input-normalized sustained arrival at
// each stage, clipped by every upstream guaranteed rate, and the bytes at
// its input per source byte. It is written once, over intervals, and read
// by DagModel at a point (the sustained rate R_alpha_{n-1} of the
// collection wait, the worst- and best-case volumes that normalize beta
// and gamma), by lint (NC101, NC102, NC305 at a point) and by the interval
// stability certificate (NC604 over a box, src/certify/interval.hpp).
//
// vol_in[i] is the worst-case bytes at node i's input per source byte,
// vol_best[i] the best case (maximum compression); the sustained arrival
// propagates source-normalized, and each node clips its output at its own
// guaranteed rate:
//
//   rate  = basis_rate(node) * scale / vol_in
//   arrival' = sum over incoming (fraction * min(arrival, rate))
//
// Each entry offers its own sustained-rate interval (a fraction of the
// source rate, or the rate of the envelope that feeds it). Both endpoints
// run the same expression, so a zero-width interval gives the pointwise
// doubles bit for bit (base * 1.0 and min of equal endpoints are exact). A
// chain runs the walk on its one-path DAG (DagSpec::chain): there it does
// the chain's multiplications and mins in the chain's order (0.0 + 1.0 * x
// and 1.0 * x are exact).
#pragma once

#include <cstddef>
#include <vector>

#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"

namespace streamcalc::netcalc {

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
  double vol_in = 0.0;     ///< input bytes per source byte, worst case
  double vol_best = 0.0;   ///< input bytes per source byte, best case
};

/// The sustained rate each entry offers when the source offers
/// `source_rate`: fraction x rate, per entry.
std::vector<Interval> entry_rates(const std::vector<DagEdge>& entries,
                                  Interval source_rate);

/// Walks `dag` in the topological `order` with entry k offering
/// `entry_rate[k]` bytes/s and node i's basis rate scaled by
/// `service_scale[i]` (all 1 when empty). Returns one row per node the
/// entries reach, in `order`.
std::vector<NodeLoad> propagate_load(
    const DagSpec& dag, const std::vector<std::size_t>& order,
    RateBasis basis, const std::vector<Interval>& entry_rate,
    const std::vector<Interval>& service_scale = {});

}  // namespace streamcalc::netcalc
