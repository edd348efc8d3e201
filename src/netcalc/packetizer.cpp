#include "netcalc/packetizer.hpp"

#include "minplus/operations.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {

minplus::Curve packetize_arrival(const minplus::Curve& alpha,
                                 util::DataSize l_max) {
  util::require(l_max >= util::DataSize::bytes(0) && l_max.is_finite(),
                "packetize_arrival requires finite l_max >= 0");
  return alpha.plus_step(l_max.in_bytes());
}

minplus::Curve packetize_service(const minplus::Curve& beta,
                                 util::DataSize l_max) {
  util::require(l_max >= util::DataSize::bytes(0) && l_max.is_finite(),
                "packetize_service requires finite l_max >= 0");
  // Segment arithmetic rounds the zero crossing up, so the residual never
  // lies above beta - l_max: the safe side for a service curve.
  const double l = l_max.in_bytes();
  return minplus::subtract_clamped(
      beta, minplus::Curve({minplus::Segment{0.0, l, l, 0.0}}));
}

}  // namespace streamcalc::netcalc
