// MGF-bounded arrival envelopes for the stochastic network calculus tier
// (DESIGN.md §15; Beck & Henningsen's Stochastic Network Calculator,
// arXiv 1707.07739, and Chang's effective-bandwidth theory).
//
// An arrival process A(s,t) (cumulative bytes in (s,t]) is
// (sigma(theta), rho(theta))-bounded when for all 0 <= s <= t and the
// given theta > 0:
//
//   E[exp(theta * A(s,t))] <= exp(theta * (sigma(theta) + rho(theta)(t-s)))
//
// rho is the *effective bandwidth* (nondecreasing in theta, between the
// mean and peak rates) and sigma the burstiness constant. Sums of
// independent flows add their (sigma, rho) at the same theta, which is the
// whole point of the formulation: aggregates of N i.i.d. users scale as
// (N*sigma, N*rho) and the Chernoff bounds then exhibit the
// multiplexing gain worst-case curves cannot see.
//
// Supported primitive models (each a Component of an Arrival):
//
//   * leaky bucket   — deterministic token bucket (r, b): rho = r,
//                      sigma = b for every theta (A(s,t) <= b + r(t-s)
//                      surely, so the MGF bound is immediate);
//   * on/off         — two-state Markov fluid (exponential sojourns,
//                      peak rate P while on) with Chang's spectral
//                      effective bandwidth and the eigenvector-ratio
//                      constant, plus a packet-size correction so the
//                      fluid envelope dominates a packetized source that
//                      releases whole packets behind the fluid;
//   * Poisson packets — compound Poisson packet arrivals (rate lambda,
//                      packet size p): rho = lambda (e^{theta p} - 1) /
//                      theta, sigma = 0 (exact MGF, not a bound).
//
// All envelope math is in canonical units: bytes, seconds, and theta in
// 1/bytes. Public constructors take util:: quantities (SC908); the
// per-theta evaluations are raw doubles because theta has no unit type.
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace streamcalc::stochcalc {

/// One primitive traffic class inside an Arrival (internal but exposed for
/// tests). `count` is the aggregation multiplicity: `count` i.i.d.
/// independent copies of the primitive.
struct Component {
  enum class Kind { kLeakyBucket, kOnOff, kPoissonPackets };
  Kind kind = Kind::kLeakyBucket;
  double count = 1.0;   ///< i.i.d. copies (N users)
  double rate = 0.0;    ///< leaky bucket: token rate (bytes/s)
  double burst = 0.0;   ///< leaky bucket: bucket depth (bytes)
  double peak = 0.0;    ///< on/off: peak rate while on (bytes/s)
  double on_exit = 0.0;   ///< on/off: rate out of on state = 1/mean_on (1/s)
  double off_exit = 0.0;  ///< on/off: rate out of off state = 1/mean_off
  double packet = 0.0;  ///< on/off + Poisson: packet size (bytes)
  double lambda = 0.0;  ///< Poisson: packet arrival rate (1/s)
};

/// An MGF-bounded arrival: an independent sum of primitive components.
class Arrival {
 public:
  /// Deterministic token bucket: A(s,t) <= burst + rate*(t-s) surely.
  static Arrival leaky_bucket(util::DataRate rate, util::DataSize burst);

  /// Markov-modulated on/off fluid: exponential on periods (mean
  /// `mean_on`) at rate `peak`, exponential silences (mean `mean_off`).
  /// `packet` > 0 adds the packetization correction (the source emits
  /// whole packets of this size behind the fluid accumulation). Requires
  /// positive peak/mean_on/mean_off.
  static Arrival on_off(util::DataRate peak, util::Duration mean_on,
                        util::Duration mean_off, util::DataSize packet);

  /// Compound Poisson packet arrivals: packets of size `packet` at
  /// exponential inter-arrivals with rate `packets_per_sec`.
  static Arrival poisson_packets(double packets_per_sec,
                                 util::DataSize packet);

  /// `n` i.i.d. independent copies of this arrival (every component's
  /// multiplicity scales). Requires n >= 1.
  Arrival aggregate(double n) const;

  /// Independent heterogeneous sum: (sigma, rho) add at the same theta.
  Arrival operator+(const Arrival& o) const;

  /// Effective bandwidth at theta (bytes/s). Nondecreasing in theta,
  /// mean_rate() at theta -> 0, peak_rate() at theta -> infinity.
  /// Requires theta > 0.
  double rho(double theta) const;

  /// Burstiness constant at theta (bytes). Requires theta > 0.
  double sigma(double theta) const;

  /// Long-run mean rate (the theta -> 0 limit of rho).
  util::DataRate mean_rate() const;

  /// Peak rate (the theta -> infinity limit of rho; infinite for Poisson
  /// packet components).
  util::DataRate peak_rate() const;

  /// True when every component is a leaky bucket — the arrival is
  /// deterministically bounded and sigma/rho are theta-independent, so
  /// Chernoff bounds degrade exactly to the deterministic ones.
  bool deterministic() const;

  const std::vector<Component>& components() const { return components_; }

 private:
  std::vector<Component> components_;
};

}  // namespace streamcalc::stochcalc
