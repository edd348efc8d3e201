#include "netcalc/packetizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace streamcalc::netcalc {
namespace {

using minplus::Curve;
using namespace util::literals;

TEST(Packetizer, ArrivalGainsStepOfLmax) {
  const Curve alpha = Curve::affine(100.0, 50.0);
  const Curve packed = packetize_arrival(alpha, util::DataSize::bytes(8));
  EXPECT_EQ(packed.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(packed.value_right(0.0), 58.0);
  EXPECT_DOUBLE_EQ(packed.value(1.0), alpha.value(1.0) + 8.0);
}

TEST(Packetizer, ZeroLmaxIsIdentity) {
  const Curve alpha = Curve::affine(100.0, 50.0);
  EXPECT_EQ(packetize_arrival(alpha, util::DataSize::bytes(0)), alpha);
  EXPECT_EQ(packetize_service(alpha, util::DataSize::bytes(0)), alpha);
}

TEST(Packetizer, ServiceLosesLmaxClamped) {
  const Curve beta = Curve::rate_latency(10.0, 1.0);
  const Curve packed = packetize_service(beta, util::DataSize::bytes(5));
  // [beta - 5]^+ : zero until beta reaches 5 (t = 1.5), then slope 10.
  EXPECT_EQ(packed.value(1.5), 0.0);
  EXPECT_DOUBLE_EQ(packed.value(2.0), 5.0);
  EXPECT_DOUBLE_EQ(packed.tail_slope(), 10.0);
}

TEST(Packetizer, ServiceEffectiveLatencyGrowsByLmaxOverRate) {
  // [beta - l]^+ of a rate-latency curve is rate-latency again, with its
  // latency grown by l / rate. The zero crossing is rounded up, the safe
  // side for a service curve: at the exact latency or one ulp past it.
  const double rate = 10.0, latency = 1.0, l = 5.0;
  const Curve packed = packetize_service(Curve::rate_latency(rate, latency),
                                         util::DataSize::bytes(l));
  const double exact = latency + l / rate;  // 1.5, exact in binary
  const std::vector<minplus::Segment>& segs = packed.segments();
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (minplus::Segment{0.0, 0.0, 0.0, 0.0}));
  EXPECT_GE(segs[1].x, exact);
  EXPECT_LE(segs[1].x, std::nextafter(exact, 2.0 * exact));
  EXPECT_EQ(segs[1].value_at, 0.0);
  EXPECT_EQ(segs[1].value_after, 0.0);
  EXPECT_EQ(segs[1].slope, rate);
}

TEST(Packetizer, RejectsNegativeOrInfiniteLmax) {
  const Curve c = Curve::rate(1.0);
  EXPECT_THROW(packetize_arrival(c, util::DataSize::bytes(-1)),
               util::PreconditionError);
  EXPECT_THROW(packetize_service(c, util::DataSize::infinite()),
               util::PreconditionError);
}

}  // namespace
}  // namespace streamcalc::netcalc
