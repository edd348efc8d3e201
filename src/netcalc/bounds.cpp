#include "netcalc/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "stochcalc/bounds.hpp"
#include "stochcalc/service.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {

const char* to_string(BoundKind k) {
  switch (k) {
    case BoundKind::kWorstCase:
      return "worst_case";
    case BoundKind::kViolationProb:
      return "violation_prob";
  }
  return "?";
}

const char* to_string(BoundMethod m) {
  switch (m) {
    case BoundMethod::kDeviation:
      return "deviation";
    case BoundMethod::kChernoff:
      return "chernoff";
    case BoundMethod::kDetClamp:
      return "det_clamp";
  }
  return "?";
}

const char* to_string(Regime r) {
  switch (r) {
    case Regime::kUnderloaded:
      return "underloaded";
    case Regime::kCritical:
      return "critical";
    case Regime::kOverloaded:
      return "overloaded";
  }
  return "?";
}

Regime regime(const minplus::Curve& alpha, const minplus::Curve& beta) {
  const double ra = alpha.tail_slope();
  const double rb = beta.tail_slope();
  if (ra < rb) return Regime::kUnderloaded;
  if (ra == rb) return Regime::kCritical;
  return Regime::kOverloaded;
}

BacklogReport backlog_bound(const minplus::Curve& alpha,
                            const minplus::Curve& beta) {
  SC_OBS_COUNT("netcalc.bound.worst_case", 1);
  return BacklogReport::worst_case(
      util::DataSize::bytes(minplus::vertical_deviation(alpha, beta)));
}

DelayReport delay_bound(const minplus::Curve& alpha,
                        const minplus::Curve& beta) {
  SC_OBS_COUNT("netcalc.bound.worst_case", 1);
  return DelayReport::worst_case(
      util::Duration::seconds(minplus::horizontal_deviation(alpha, beta)));
}

namespace {

/// Folds a stochcalc result and the sure deviation bound into one report:
/// the tighter value wins, with provenance recording which one it was.
/// `det_value` may be +infinity (no sure bound available).
template <class Q>
BoundReport<Q> fold_stochastic(const stochcalc::StochasticBound& stoch,
                               double det_value, double epsilon,
                               Q (*make)(double)) {
  SC_OBS_COUNT("netcalc.bound.violation_prob", 1);
  BoundProvenance prov;
  prov.method = BoundMethod::kDetClamp;
  double value = det_value;
  if (stoch.finite && stoch.value < det_value) {
    value = stoch.value;
    if (!stoch.det_clamped) {
      prov.method = BoundMethod::kChernoff;
      prov.theta = stoch.theta;
    }
  }
  return BoundReport<Q>::violation_prob(make(value), epsilon, prov);
}

util::Duration make_duration(double s) { return util::Duration::seconds(s); }
util::DataSize make_size(double b) { return util::DataSize::bytes(b); }

/// Rate-latency minorant of beta, or nullopt when beta has no positive
/// finite tail slope (the Chernoff machinery then has no stable server).
std::optional<stochcalc::Service> service_minorant(
    const minplus::Curve& beta) {
  const double rate = beta.tail_slope();
  if (!(rate > 0.0) || !std::isfinite(rate)) return std::nullopt;
  return stochcalc::Service::from_curve(beta);
}

}  // namespace

stochcalc::Arrival dominating_arrival(const minplus::Curve& alpha) {
  const double rate = alpha.tail_slope();
  util::require(rate >= 0.0 && std::isfinite(rate),
                "dominating_arrival requires a finite arrival tail slope");
  // sup_t [alpha(t) - rate*t] is attained at a breakpoint (the objective
  // is piecewise linear with non-positive final slope); a discontinuity
  // contributes its larger side.
  double burst = 0.0;
  for (const minplus::Segment& s : alpha.segments()) {
    const double v = std::max(alpha.value(s.x), alpha.value_right(s.x));
    if (!std::isfinite(v)) continue;
    burst = std::max(burst, v - rate * s.x);
  }
  return stochcalc::Arrival::leaky_bucket(
      util::DataRate::bytes_per_sec(rate), util::DataSize::bytes(burst));
}

DelayReport delay_bound(const minplus::Curve& alpha,
                        const minplus::Curve& beta, double epsilon) {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "delay_bound requires epsilon in (0, 1)");
  const double det = minplus::horizontal_deviation(alpha, beta);
  stochcalc::StochasticBound stoch;
  if (const auto service = service_minorant(beta)) {
    stoch = stochcalc::delay_bound(dominating_arrival(alpha), *service,
                                   epsilon);
  }
  return fold_stochastic<util::Duration>(stoch, det, epsilon, make_duration);
}

BacklogReport backlog_bound(const minplus::Curve& alpha,
                            const minplus::Curve& beta, double epsilon) {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "backlog_bound requires epsilon in (0, 1)");
  const double det = minplus::vertical_deviation(alpha, beta);
  stochcalc::StochasticBound stoch;
  if (const auto service = service_minorant(beta)) {
    stoch = stochcalc::backlog_bound(dominating_arrival(alpha), *service,
                                     epsilon);
  }
  return fold_stochastic<util::DataSize>(stoch, det, epsilon, make_size);
}

DelayReport delay_bound(const stochcalc::Arrival& arrival,
                        const minplus::Curve& beta, double epsilon) {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "delay_bound requires epsilon in (0, 1)");
  stochcalc::StochasticBound stoch;
  if (const auto service = service_minorant(beta)) {
    stoch = stochcalc::delay_bound(arrival, *service, epsilon);
  }
  return fold_stochastic<util::Duration>(
      stoch, std::numeric_limits<double>::infinity(), epsilon, make_duration);
}

BacklogReport backlog_bound(const stochcalc::Arrival& arrival,
                            const minplus::Curve& beta, double epsilon) {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "backlog_bound requires epsilon in (0, 1)");
  stochcalc::StochasticBound stoch;
  if (const auto service = service_minorant(beta)) {
    stoch = stochcalc::backlog_bound(arrival, *service, epsilon);
  }
  return fold_stochastic<util::DataSize>(
      stoch, std::numeric_limits<double>::infinity(), epsilon, make_size);
}

minplus::Curve output_bound(const minplus::Curve& alpha,
                            const minplus::Curve& beta,
                            const std::optional<minplus::Curve>& gamma) {
  const minplus::Curve constrained =
      gamma ? minplus::convolve(alpha, *gamma) : alpha;
  return minplus::deconvolve(constrained, beta);
}

util::DataRate guaranteed_rate(const minplus::Curve& beta,
                               util::Duration horizon) {
  util::require(horizon > util::Duration::seconds(0) && horizon.is_finite(),
                "guaranteed_rate requires a positive finite horizon");
  const double h = horizon.in_seconds();
  return util::DataRate::bytes_per_sec(beta.value(h) / h);
}

util::DataRate limiting_rate(const minplus::Curve& curve,
                             util::Duration horizon) {
  util::require(horizon > util::Duration::seconds(0) && horizon.is_finite(),
                "limiting_rate requires a positive finite horizon");
  const double h = horizon.in_seconds();
  const double v = curve.value(h);
  if (v == std::numeric_limits<double>::infinity()) {
    return util::DataRate::infinite();
  }
  return util::DataRate::bytes_per_sec(v / h);
}

util::DataRate overload_growth_rate(const minplus::Curve& alpha,
                                    const minplus::Curve& beta) {
  const double excess = alpha.tail_slope() - beta.tail_slope();
  return util::DataRate::bytes_per_sec(std::max(0.0, excess));
}

util::DataSize backlog_at(const minplus::Curve& alpha,
                          const minplus::Curve& beta, util::Duration elapsed) {
  util::require(elapsed >= util::Duration::seconds(0) && elapsed.is_finite(),
                "backlog_at requires a finite elapsed time >= 0");
  // sup over [0, elapsed] of alpha - beta: candidates are the breakpoints
  // of either curve inside the window plus the window edge.
  double best = 0.0;
  const double h = elapsed.in_seconds();
  auto consider = [&](double t) {
    if (t < 0.0 || t > h) return;
    const double a = alpha.value_right(t);
    const double b = beta.value(t);
    if (b == std::numeric_limits<double>::infinity()) return;
    best = std::max(best, a - b);
  };
  consider(h);
  for (const minplus::Segment& s : alpha.segments()) consider(s.x);
  for (const minplus::Segment& s : beta.segments()) consider(s.x);
  // Between breakpoints the difference is linear, so interior suprema occur
  // only at the considered points or at the window edge (handled above).
  return util::DataSize::bytes(best);
}

}  // namespace streamcalc::netcalc
