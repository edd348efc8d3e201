// util::Rational / util::BigInt: the exact arithmetic underneath the
// certificate checker. These tests pin the properties the checker's
// soundness rests on: conversion from doubles is exact, field operations
// are exact, comparisons are total-order correct, and round_up_double
// returns the smallest dominating double.
#include "util/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::util {
namespace {

TEST(BigInt, SmallArithmetic) {
  const BigInt a(7);
  const BigInt b(-12);
  EXPECT_EQ((a + b).to_string(), "-5");
  EXPECT_EQ((a - b).to_string(), "19");
  EXPECT_EQ((a * b).to_string(), "-84");
  EXPECT_EQ((-a).to_string(), "-7");
  EXPECT_TRUE(BigInt(0).is_zero());
  EXPECT_EQ(BigInt(0).to_string(), "0");
  EXPECT_LT(b.compare(a), 0);
  EXPECT_EQ(BigInt(-5) + BigInt(5), BigInt(0));
}

TEST(BigInt, MultiLimbRoundTrip) {
  // (2^64 + 3) * (2^32 + 1) computed two ways.
  const BigInt big = BigInt(1).shifted_left(64) + BigInt(3);
  const BigInt factor = BigInt(1).shifted_left(32) + BigInt(1);
  const BigInt product = big * factor;
  const BigInt expanded = BigInt(1).shifted_left(96) +
                          BigInt(1).shifted_left(64) +
                          BigInt(3).shifted_left(32) + BigInt(3);
  EXPECT_EQ(product, expanded);
  EXPECT_EQ(BigInt(1).shifted_left(64).to_string(), "18446744073709551616");
}

TEST(BigInt, Int64MinDoesNotOverflow) {
  const BigInt v(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.to_string(), "-9223372036854775808");
}

TEST(Rational, ExactDoubleConversion) {
  EXPECT_EQ(Rational::from_double(0.5), Rational(BigInt(1), BigInt(2)));
  EXPECT_EQ(Rational::from_double(-3.25), Rational(BigInt(-13), BigInt(4)));
  EXPECT_EQ(Rational::from_double(0.0), Rational(0));
  // 0.1 is NOT one tenth as a double; the conversion must preserve the
  // exact binary value, not the decimal intent.
  EXPECT_NE(Rational::from_double(0.1), Rational(BigInt(1), BigInt(10)));
  EXPECT_THROW((void)Rational::from_double(
                   std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW(
      (void)Rational::from_double(std::numeric_limits<double>::quiet_NaN()),
      PreconditionError);
}

TEST(Rational, FieldOperations) {
  const Rational a(BigInt(1), BigInt(3));
  const Rational b(BigInt(1), BigInt(6));
  EXPECT_EQ(a + b, Rational(BigInt(1), BigInt(2)));
  EXPECT_EQ(a - b, b);
  EXPECT_EQ(a * b, Rational(BigInt(1), BigInt(18)));
  EXPECT_EQ(a / b, Rational(2));
  EXPECT_EQ((-a) + a, Rational(0));
  EXPECT_THROW((void)(a / Rational(0)), PreconditionError);
  EXPECT_THROW(Rational(BigInt(1), BigInt(0)), PreconditionError);
}

TEST(Rational, ComparisonTotalOrder) {
  const Rational third(BigInt(1), BigInt(3));
  const Rational tenth_double = Rational::from_double(0.1);
  EXPECT_LT(tenth_double, third);
  EXPECT_GT(third, Rational(0));
  EXPECT_LE(third, third);
  EXPECT_EQ(Rational::min(third, tenth_double), tenth_double);
  EXPECT_EQ(Rational::max(third, tenth_double), third);
  EXPECT_TRUE(Rational(-1).is_negative());
  EXPECT_FALSE(Rational(0).is_negative());
}

TEST(Rational, RoundTripThroughDoublesIsIdentity) {
  util::Xoshiro256 rng(20260806);
  for (int i = 0; i < 2000; ++i) {
    const double v =
        (rng.uniform01() - 0.5) * std::pow(10.0, rng.uniform(-18.0, 18.0));
    const Rational r = Rational::from_double(v);
    // For a value that IS a double, both roundings return it unchanged.
    EXPECT_EQ(r.round_up_double(), v) << v;
    EXPECT_DOUBLE_EQ(r.approx(), v);
  }
}

TEST(Rational, RoundUpDoubleIsSmallestDominating) {
  // 1/3 lies strictly between two doubles; round_up must pick the upper
  // one, and the next double down must be strictly below 1/3.
  const Rational third(BigInt(1), BigInt(3));
  const double up = third.round_up_double();
  EXPECT_GE(Rational::from_double(up).compare(third), 0);
  const double down =
      std::nextafter(up, -std::numeric_limits<double>::infinity());
  EXPECT_LT(Rational::from_double(down).compare(third), 0);
}

/// round_up_double(r) must be `expected`, and `expected` the smallest
/// double that dominates r.
void expect_round_up(const Rational& r, double expected) {
  const double got = r.round_up_double();
  EXPECT_EQ(got, expected) << r.to_string();
  if (std::isinf(expected)) return;
  EXPECT_GE(Rational::from_double(expected), r);
  const double below =
      std::nextafter(expected, -std::numeric_limits<double>::infinity());
  if (std::isfinite(below)) {
    EXPECT_LT(Rational::from_double(below), r);
  }
}

TEST(Rational, RoundUpDoubleAtTinyMagnitudes) {
  // Below about 5e-293 the denominator of the exact value passes 2^1024.
  // approx() once divided two to_double() results there, got 0 (or NaN),
  // and round_up_double then climbed one subnormal ulp at a time.
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  for (const double v : {1e-295, 1e-300, 1e-310, kDenormMin,
                         12345 * kDenormMin,
                         std::numeric_limits<double>::min()}) {
    expect_round_up(Rational::from_double(v), v);
    expect_round_up(Rational::from_double(-v), -v);
  }
  // odd * 2^-1075 is halfway between two subnormals: it rounds up.
  expect_round_up(Rational::from_double(12345 * kDenormMin) / Rational(2),
                  6173 * kDenormMin);
  // Non-dyadic values in the subnormal range and just above it.
  expect_round_up(Rational::from_double(kDenormMin) / Rational(3), kDenormMin);
  expect_round_up(
      Rational::from_double(1e-310) * Rational(BigInt(7), BigInt(5)),
      0x0.019c590047570p-1022);
  expect_round_up(Rational::from_double(1e-300) / Rational(3),
                  0x1.c92d503f699ccp-999);
}

TEST(Rational, RoundUpDoubleNearDoubleMax) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Rational max = Rational::from_double(kMax);
  expect_round_up(max, kMax);
  expect_round_up(max * Rational(BigInt(2), BigInt(3)),
                  0x1.5555555555555p+1023);
  expect_round_up(max / Rational(3), 0x1.5555555555555p+1022);
  // Above the largest double (by less than half its ulp, and by far) the
  // smallest dominating double is +inf; below -DBL_MAX it is -DBL_MAX.
  const Rational above = max + Rational::from_double(0x1.0p960);
  expect_round_up(above, kInf);
  expect_round_up(max * Rational(BigInt(3), BigInt(2)), kInf);
  expect_round_up(-above, -kMax);
}

TEST(Rational, ExactnessUnderMixedExpressions) {
  // (a + b) * c - a * c - b * c == 0 exactly, for doubles where the same
  // expression in double arithmetic typically is not zero.
  const double a = 0.1;
  const double b = 0.7;
  const double c = 3.3;
  const Rational ra = Rational::from_double(a);
  const Rational rb = Rational::from_double(b);
  const Rational rc = Rational::from_double(c);
  const Rational residue = (ra + rb) * rc - ra * rc - rb * rc;
  EXPECT_TRUE(residue.is_zero()) << residue.to_string();
}

TEST(Rational, ToStringRendersReducedDyadics) {
  EXPECT_EQ(Rational::from_double(0.75).to_string(), "3/4");
  EXPECT_EQ(Rational::from_double(2.0).to_string(), "2");
  EXPECT_EQ(Rational(BigInt(-3), BigInt(8)).to_string(), "-3/8");
}

}  // namespace
}  // namespace streamcalc::util
