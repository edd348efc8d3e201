#include "netcalc/packetizer.hpp"

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
  return beta.minus_clamped(l_max.in_bytes());
}

}  // namespace streamcalc::netcalc
