#include "stochcalc/envelope.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace streamcalc::stochcalc {

namespace {

/// Spectral effective bandwidth of the two-state on/off Markov fluid
/// (Anick-Mitra-Sondhi / Chang): the largest eigenvalue of
/// Q + theta*diag(0, P) divided by theta, with Q the generator
/// (off_exit out of silence, on_exit out of the burst state).
double on_off_eb(const Component& c, double theta) {
  const double half = 0.5 * (c.peak - (c.on_exit + c.off_exit) / theta);
  const double q = c.off_exit * c.peak / theta;
  if (half < 0.0) {
    // Conjugate form: half + sqrt(half^2 + q) cancels catastrophically
    // when half is large and negative (theta -> 0, where the eigenvalue
    // tends to theta * mean), so evaluate it addition-only.
    return q / (std::sqrt(half * half + q) - half);
  }
  return half + std::sqrt(half * half + q);
}

double component_rho(const Component& c, double theta) {
  switch (c.kind) {
    case Component::Kind::kLeakyBucket:
      return c.rate;
    case Component::Kind::kOnOff:
      return on_off_eb(c, theta);
    case Component::Kind::kPoissonPackets: {
      // Exact MGF of a compound Poisson process with constant packets:
      // E[e^{theta A(0,t)}] = exp(lambda t (e^{theta p} - 1)).
      const double x = theta * c.packet;
      // Guard against overflow for absurd theta: the caller's theta-domain
      // search treats +inf as "past the valid domain".
      if (x > 700.0) return std::numeric_limits<double>::infinity();
      return c.lambda * std::expm1(x) / theta;
    }
  }
  return 0.0;
}

double component_sigma(const Component& c, double theta) {
  switch (c.kind) {
    case Component::Kind::kLeakyBucket:
      return c.burst;
    case Component::Kind::kOnOff: {
      // Eigenvector-ratio constant: with v the positive right eigenvector
      // of Q + theta*diag(0, P), E_i[e^{theta A(0,t)}] <= (v_max/v_min)
      // e^{theta eb t} for every initial state i, and v_on/v_off =
      // 1 + theta*eb/off_exit. The packet term covers a source that
      // releases whole packets once the fluid accumulates them.
      const double eb = on_off_eb(c, theta);
      return std::log1p(theta * eb / c.off_exit) / theta + c.packet;
    }
    case Component::Kind::kPoissonPackets:
      return 0.0;
  }
  return 0.0;
}

double component_mean(const Component& c) {
  switch (c.kind) {
    case Component::Kind::kLeakyBucket:
      return c.rate;
    case Component::Kind::kOnOff:
      return c.peak * c.off_exit / (c.on_exit + c.off_exit);
    case Component::Kind::kPoissonPackets:
      return c.lambda * c.packet;
  }
  return 0.0;
}

double component_peak(const Component& c) {
  switch (c.kind) {
    case Component::Kind::kLeakyBucket:
      return c.rate;
    case Component::Kind::kOnOff:
      return c.peak;
    case Component::Kind::kPoissonPackets:
      return std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

}  // namespace

Arrival Arrival::leaky_bucket(util::DataRate rate, util::DataSize burst) {
  util::require(rate.in_bytes_per_sec() >= 0.0 && rate.is_finite(),
                "leaky_bucket requires a finite non-negative rate");
  util::require(burst.in_bytes() >= 0.0 && burst.is_finite(),
                "leaky_bucket requires a finite non-negative burst");
  Component c;
  c.kind = Component::Kind::kLeakyBucket;
  c.rate = rate.in_bytes_per_sec();
  c.burst = burst.in_bytes();
  Arrival a;
  a.components_.push_back(c);
  return a;
}

Arrival Arrival::on_off(util::DataRate peak, util::Duration mean_on,
                        util::Duration mean_off, util::DataSize packet) {
  util::require(peak.in_bytes_per_sec() > 0.0 && peak.is_finite(),
                "on_off requires a positive finite peak rate");
  util::require(mean_on > util::Duration::seconds(0) && mean_on.is_finite(),
                "on_off requires a positive finite mean on-period");
  util::require(mean_off > util::Duration::seconds(0) && mean_off.is_finite(),
                "on_off requires a positive finite mean off-period");
  util::require(packet.in_bytes() >= 0.0 && packet.is_finite(),
                "on_off requires a finite non-negative packet size");
  Component c;
  c.kind = Component::Kind::kOnOff;
  c.peak = peak.in_bytes_per_sec();
  c.on_exit = 1.0 / mean_on.in_seconds();
  c.off_exit = 1.0 / mean_off.in_seconds();
  c.packet = packet.in_bytes();
  Arrival a;
  a.components_.push_back(c);
  return a;
}

Arrival Arrival::poisson_packets(double packets_per_sec,
                                 util::DataSize packet) {
  util::require(packets_per_sec > 0.0 && std::isfinite(packets_per_sec),
                "poisson_packets requires a positive finite rate");
  util::require(packet.in_bytes() > 0.0 && packet.is_finite(),
                "poisson_packets requires a positive finite packet size");
  Component c;
  c.kind = Component::Kind::kPoissonPackets;
  c.lambda = packets_per_sec;
  c.packet = packet.in_bytes();
  Arrival a;
  a.components_.push_back(c);
  return a;
}

Arrival Arrival::aggregate(double n) const {
  util::require(n >= 1.0 && std::isfinite(n),
                "aggregate requires a multiplicity >= 1");
  Arrival a = *this;
  for (Component& c : a.components_) c.count *= n;
  return a;
}

Arrival Arrival::operator+(const Arrival& o) const {
  Arrival a = *this;
  a.components_.insert(a.components_.end(), o.components_.begin(),
                       o.components_.end());
  return a;
}

double Arrival::rho(double theta) const {
  util::require(theta > 0.0, "rho requires theta > 0");
  double total = 0.0;
  for (const Component& c : components_) {
    total += c.count * component_rho(c, theta);
  }
  return total;
}

double Arrival::sigma(double theta) const {
  util::require(theta > 0.0, "sigma requires theta > 0");
  double total = 0.0;
  for (const Component& c : components_) {
    total += c.count * component_sigma(c, theta);
  }
  return total;
}

util::DataRate Arrival::mean_rate() const {
  double total = 0.0;
  for (const Component& c : components_) {
    total += c.count * component_mean(c);
  }
  return util::DataRate::bytes_per_sec(total);
}

util::DataRate Arrival::peak_rate() const {
  double total = 0.0;
  for (const Component& c : components_) {
    total += c.count * component_peak(c);
  }
  return util::DataRate::bytes_per_sec(total);
}

bool Arrival::deterministic() const {
  for (const Component& c : components_) {
    if (c.kind != Component::Kind::kLeakyBucket) return false;
  }
  return true;
}

}  // namespace streamcalc::stochcalc
