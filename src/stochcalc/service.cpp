#include "stochcalc/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace streamcalc::stochcalc {

Service Service::rate_latency(util::DataRate rate, util::Duration latency) {
  util::require(rate.in_bytes_per_sec() > 0.0 && rate.is_finite(),
                "Service requires a positive finite rate");
  util::require(
      latency >= util::Duration::seconds(0) && latency.is_finite(),
      "Service requires a finite non-negative latency");
  return Service(rate, latency);
}

Service Service::from_curve(const minplus::Curve& beta) {
  const double rate = beta.tail_slope();
  util::require(rate > 0.0 && std::isfinite(rate),
                "Service::from_curve requires a positive finite tail slope");
  // T = sup_t [t - beta(t)/R]. The objective is piecewise linear in t with
  // final slope zero (the tail has slope exactly R), so the supremum is
  // attained at a breakpoint. At a discontinuity the smaller curve value
  // gives the larger (conservative) latency candidate.
  double latency = 0.0;
  for (const minplus::Segment& s : beta.segments()) {
    const double v =
        std::min(beta.value(s.x), beta.value_right(s.x));
    if (!std::isfinite(v)) continue;
    latency = std::max(latency, s.x - v / rate);
  }
  return Service(util::DataRate::bytes_per_sec(rate),
                 util::Duration::seconds(latency));
}

Service Service::scaled(double n) const {
  util::require(n > 0.0 && std::isfinite(n),
                "Service::scaled requires a positive finite factor");
  return Service(rate_ * n, latency_);
}

}  // namespace streamcalc::stochcalc
