// Deterministic rate-latency service descriptions for the stochastic tier.
//
// The library's servers guarantee deterministic service curves (src/netcalc
// derives them from measured node specs), so the stochastic analysis keeps
// the service side sure and puts all randomness in the arrivals: a Service
// is the rate-latency minorant beta_{R,T}(t) = [R(t - T)]^+ of a (possibly
// richer) piecewise-linear service curve. Using a minorant is sound — a
// server that guarantees beta also guarantees any curve below it — and it
// gives the Chernoff machinery the closed geometric-sum form it needs.
//
// Concatenation of rate-latency servers is the deterministic convolution
// beta_{R1,T1} (x) beta_{R2,T2} = beta_{min(R1,R2), T1+T2} (exact).
#pragma once

#include "minplus/curve.hpp"
#include "util/units.hpp"

namespace streamcalc::stochcalc {

/// A deterministic rate-latency service guarantee.
class Service {
 public:
  /// beta(t) = [rate * (t - latency)]^+. Requires rate > 0, latency >= 0.
  static Service rate_latency(util::DataRate rate, util::Duration latency);

  /// The tightest rate-latency minorant of a piecewise-linear service
  /// curve: R = the curve's tail slope, T = the smallest latency with
  /// R(t - T) <= beta(t) everywhere. Requires a curve with positive
  /// finite tail slope.
  static Service from_curve(const minplus::Curve& beta);

  /// Scaled server (rate * n, same latency) — the service side of the
  /// aggregation-of-N-flows scaling laws.
  Service scaled(double n) const;

  util::DataRate rate() const { return rate_; }
  util::Duration latency() const { return latency_; }

 private:
  Service(util::DataRate rate, util::Duration latency)
      : rate_(rate), latency_(latency) {}

  util::DataRate rate_;
  util::Duration latency_;
};

}  // namespace streamcalc::stochcalc
