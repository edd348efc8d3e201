// Packetizer adjustments (paper, Section 3; Van Bemten & Kellerer 2016).
//
// Classic network calculus models bit-by-bit fluid flows; real streaming
// stages and network elements move whole packets/jobs. A packetizer P^L
// placed after a system changes the curves as follows, where l_max is the
// largest packet:
//
//   arrival:      P^L(r)  is constrained by  alpha(t) + l_max * 1_{t>0}
//   service:      beta'(t) = [beta(t) - l_max]^+
//   max service:  gamma'(t) = gamma(t)              (unchanged)
#pragma once

#include "minplus/curve.hpp"
#include "util/units.hpp"

namespace streamcalc::netcalc {

/// Packetized arrival curve: alpha + l_max * 1_{t > 0}.
minplus::Curve packetize_arrival(const minplus::Curve& alpha,
                                 util::DataSize l_max);

/// Packetized service curve: [beta - l_max]^+.
minplus::Curve packetize_service(const minplus::Curve& beta,
                                 util::DataSize l_max);

}  // namespace streamcalc::netcalc
