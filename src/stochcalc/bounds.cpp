#include "stochcalc/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/rational.hpp"

namespace streamcalc::stochcalc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Absolute cap on the theta search (1/bytes). Far beyond any optimum:
/// at theta = 1e12 the ln(1/eps)/theta term is ~1e-12 bytes.
constexpr double kThetaCap = 1e12;

/// The delta-optimized slot penalty in bytes: rho*delta* - ln(1-q*)/theta
/// with delta* = ln(R/rho)/(theta(R-rho)), q* = rho/R. Zero in the
/// rho -> 0 limit; diverges as rho -> R.
double slack_bytes(double rho, double rate, double theta) {
  if (rho <= 0.0) return 0.0;
  return rho * std::log(rate / rho) / (theta * (rate - rho)) +
         std::log(rate / (rate - rho)) / theta;
}

/// Generic theta optimizer: log-spaced grid scan over the valid interval
/// followed by golden-section refinement around the best cell. `f` must
/// return +inf outside its domain. Returns the best (theta, f(theta)).
template <class F>
std::pair<double, double> minimize_over_theta(double theta_hi, F f) {
  const double hi = std::min(theta_hi, kThetaCap);
  const double lo = std::min(1e-15, hi * 1e-9);
  constexpr int kGrid = 160;
  const double step = std::log(hi / lo) / (kGrid - 1);
  double best_theta = 0.0;
  double best_value = kInf;
  int best_index = -1;
  for (int i = 0; i < kGrid; ++i) {
    const double theta = lo * std::exp(step * i);
    const double v = f(theta);
    if (v < best_value) {
      best_value = v;
      best_theta = theta;
      best_index = i;
    }
  }
  if (best_index < 0) return {0.0, kInf};
  // Golden-section over the bracket spanning the neighbouring grid cells.
  double a = lo * std::exp(step * std::max(0, best_index - 1));
  double b = lo * std::exp(step * std::min(kGrid - 1, best_index + 1));
  constexpr double kGolden = 0.6180339887498949;
  double x1 = b - kGolden * (b - a);
  double x2 = a + kGolden * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int it = 0; it < 90; ++it) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kGolden * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kGolden * (b - a);
      f2 = f(x2);
    }
  }
  const double mid = 0.5 * (a + b);
  const double fm = f(mid);
  if (fm < best_value) {
    best_value = fm;
    best_theta = mid;
  }
  return {best_theta, best_value};
}

/// Sure (worst-case) burst of the arrival, +inf when none exists: leaky
/// buckets contribute their depth, on/off sources one packet per user,
/// Poisson packets are unbounded.
double sure_burst_bytes(const Arrival& arrival) {
  double total = 0.0;
  for (const Component& c : arrival.components()) {
    switch (c.kind) {
      case Component::Kind::kLeakyBucket:
        total += c.count * c.burst;
        break;
      case Component::Kind::kOnOff:
        total += c.count * c.packet;
        break;
      case Component::Kind::kPoissonPackets:
        return kInf;
    }
  }
  return total;
}

/// Exact upper-rounded a + b/c over rationals (all finite doubles).
double exact_sum_ratio(double a, double b, double c) {
  const util::Rational r = util::Rational::from_double(a) +
                           util::Rational::from_double(b) /
                               util::Rational::from_double(c);
  return r.round_up_double();
}

/// Exact upper-rounded a + b*c over rationals.
double exact_sum_product(double a, double b, double c) {
  const util::Rational r =
      util::Rational::from_double(a) +
      util::Rational::from_double(b) * util::Rational::from_double(c);
  return r.round_up_double();
}

/// Clamps a Chernoff result by the sure deterministic bound when one
/// exists (finite peak rate <= R with finite sure burst). `det_of_burst`
/// maps the sure burst to the deterministic bound value.
template <class F>
void apply_det_clamp(const Arrival& arrival, const Service& service,
                     StochasticBound& bound, F det_of_burst) {
  const double peak = arrival.peak_rate().in_bytes_per_sec();
  const double burst = sure_burst_bytes(arrival);
  if (!(peak <= service.rate().in_bytes_per_sec()) || !std::isfinite(burst)) {
    return;
  }
  const double det = det_of_burst(burst, peak);
  // For a purely deterministic arrival the sure bound *is* the answer:
  // the Chernoff infimum only approaches it in the theta -> inf limit, so
  // float noise in the search must not decide the provenance.
  if (!bound.finite || det <= bound.value || arrival.deterministic()) {
    bound.value = det;
    bound.theta = 0.0;
    bound.finite = true;
    bound.det_clamped = true;
  }
}

}  // namespace

double theta_max(const Arrival& arrival, const Service& service) {
  const double rate = service.rate().in_bytes_per_sec();
  if (!(arrival.mean_rate().in_bytes_per_sec() < rate)) return 0.0;
  if (arrival.peak_rate().in_bytes_per_sec() < rate) return kInf;
  // rho is nondecreasing with rho(0+) = mean < rate <= peak = rho(inf):
  // bracket the crossing by doubling, then bisect.
  double lo = 1e-18;
  if (!(arrival.rho(lo) < rate)) return 0.0;
  double hi = lo;
  while (hi < kThetaCap && arrival.rho(hi) < rate) hi *= 2.0;
  if (arrival.rho(hi) < rate) return kInf;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (arrival.rho(mid) < rate) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StochasticBound delay_bound(const Arrival& arrival, const Service& service,
                            double epsilon) {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "delay_bound requires epsilon in (0, 1)");
  const double rate = service.rate().in_bytes_per_sec();
  const double latency = service.latency().in_seconds();
  const double log_eps = std::log(1.0 / epsilon);
  StochasticBound bound;
  bound.value = kInf;
  const double tmax = theta_max(arrival, service);
  if (tmax > 0.0) {
    const auto objective = [&](double theta) {
      const double rho = arrival.rho(theta);
      if (!(rho < rate)) return kInf;
      return latency + (arrival.sigma(theta) + slack_bytes(rho, rate, theta) +
                        log_eps / theta) /
                           rate;
    };
    const auto [theta, value] = minimize_over_theta(tmax, objective);
    if (std::isfinite(value)) {
      bound.value = value;
      bound.theta = theta;
      bound.finite = true;
    }
  }
  apply_det_clamp(arrival, service, bound,
                  [&](double burst, double /*peak*/) {
                    return exact_sum_ratio(latency, burst, rate);
                  });
  return bound;
}

StochasticBound backlog_bound(const Arrival& arrival, const Service& service,
                              double epsilon) {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "backlog_bound requires epsilon in (0, 1)");
  const double rate = service.rate().in_bytes_per_sec();
  const double latency = service.latency().in_seconds();
  const double log_eps = std::log(1.0 / epsilon);
  StochasticBound bound;
  bound.value = kInf;
  const double tmax = theta_max(arrival, service);
  if (tmax > 0.0) {
    const auto objective = [&](double theta) {
      const double rho = arrival.rho(theta);
      if (!(rho < rate)) return kInf;
      return arrival.sigma(theta) + rate * latency +
             slack_bytes(rho, rate, theta) + log_eps / theta;
    };
    const auto [theta, value] = minimize_over_theta(tmax, objective);
    if (std::isfinite(value)) {
      bound.value = value;
      bound.theta = theta;
      bound.finite = true;
    }
  }
  apply_det_clamp(arrival, service, bound, [&](double burst, double peak) {
    // Token bucket (peak, burst) against beta_{R,T}: the vertical
    // deviation is burst + peak*T (attained at the end of the latency).
    return exact_sum_product(burst, peak, latency);
  });
  return bound;
}

std::vector<ScalingPoint> aggregation_scaling(const Arrival& per_user,
                                              const Service& base,
                                              double epsilon,
                                              const std::vector<double>& ns) {
  const StochasticBound one = delay_bound(per_user, base, epsilon);
  std::vector<ScalingPoint> points;
  points.reserve(ns.size());
  for (const double n : ns) {
    ScalingPoint p;
    p.n = n;
    p.delay = delay_bound(per_user.aggregate(n), base.scaled(n), epsilon);
    if (one.finite && p.delay.finite && p.delay.value > 0.0) {
      p.gain = one.value / p.delay.value;
    }
    points.push_back(p);
  }
  return points;
}

}  // namespace streamcalc::stochcalc
