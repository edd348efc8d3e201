// Chernoff-style delay/backlog/output bounds from MGF arrival envelopes
// against deterministic rate-latency service (DESIGN.md §15).
//
// For an arrival (sigma(theta), rho(theta))-bounded and a server
// guaranteeing beta_{R,T}, discretizing the start of the busy period on a
// slot grid of width delta and union-bounding over slots gives
//
//   P(delay > d)   <= exp(theta(sigma + rho*delta + R T - R d)) / (1 - q)
//   P(backlog > x) <= exp(theta(sigma + rho*delta + R T - x))   / (1 - q)
//
// with q = exp(-theta delta (R - rho)), valid for every theta with
// rho(theta) < R and every delta > 0 (the delta terms pay for evaluating
// the discrete-time bound against continuous time). Solving for the bound
// at violation probability epsilon and optimizing delta in closed form
// (delta* = ln(R/rho) / (theta (R - rho))) leaves a one-dimensional
// optimization over theta, done by a log-grid scan plus golden-section
// refinement over the valid theta interval.
//
// Exactness guards: when the arrival is deterministically bounded (leaky
// buckets, or a finite peak rate with per-packet burst), the sure
// deterministic bound — evaluated in exact rational arithmetic and rounded
// up onto the double grid — clamps the Chernoff value, so epsilon -> 0
// degrades gracefully onto (never below) the deterministic bound.
#pragma once

#include <vector>

#include "stochcalc/envelope.hpp"
#include "stochcalc/service.hpp"

namespace streamcalc::stochcalc {

/// A theta-optimized Chernoff bound. `value` is seconds for delay bounds
/// and bytes for backlog bounds.
struct StochasticBound {
  double value = 0.0;
  double theta = 0.0;        ///< optimizing theta (0 when det-clamped)
  bool finite = false;       ///< false: no valid theta (mean rate >= R)
  bool det_clamped = false;  ///< the sure deterministic bound was tighter
};

/// Supremum of the valid theta domain { theta : rho(theta) < R }, found by
/// bisection (rho is nondecreasing). Returns +infinity when even the peak
/// rate stays below R, 0 when already the mean rate reaches R.
double theta_max(const Arrival& arrival, const Service& service);

/// d with P(delay > d) <= epsilon. Requires epsilon in (0, 1).
StochasticBound delay_bound(const Arrival& arrival, const Service& service,
                            double epsilon);

/// x with P(backlog > x) <= epsilon. Requires epsilon in (0, 1).
StochasticBound backlog_bound(const Arrival& arrival, const Service& service,
                              double epsilon);

/// One row of an aggregation-of-N-flows scaling study.
struct ScalingPoint {
  double n = 1.0;          ///< number of i.i.d. users
  StochasticBound delay;   ///< bound for N users on the N-scaled server
  double gain = 1.0;       ///< delay(1) / delay(n): multiplexing gain
};

/// Economy-of-scale law: N i.i.d. copies of `per_user` served at N times
/// `base` (same latency). Worst-case bounds are N-invariant under this
/// scaling; the Chernoff bounds tighten with N, and `gain` quantifies it.
std::vector<ScalingPoint> aggregation_scaling(const Arrival& per_user,
                                              const Service& base,
                                              double epsilon,
                                              const std::vector<double>& ns);

}  // namespace streamcalc::stochcalc
