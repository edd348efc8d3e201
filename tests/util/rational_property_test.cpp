// Property suite for util::BigInt / util::Rational (label `property`).
//
// BigInt keeps up to BigInt::kInlineLimbs limbs inside the object and
// moves to the heap beyond that, and Rational strips the common power of
// two of numerator and denominator in one shift. Every case here diffs
// that code against an independent reference: __int128 arithmetic where
// the operands fit, a bit-serial normalize over plain limb vectors, field
// identities, and known decimal renderings at the inline/heap edge.
// Rational's operators shift where a denominator is a power of two; the
// zero-tolerance case checks them against the plain cross-multiplying
// formulas built from BigInt products alone.
// Budgets scale with STREAMCALC_FUZZ_CASES.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "testing/property.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace streamcalc::util {
namespace {

using streamcalc::testing::scaled_cases;

__extension__ typedef __int128 i128;
__extension__ typedef unsigned __int128 u128;

// ---------------------------------------------------------------------------
// References

/// Decimal rendering of an __int128, independent of BigInt::to_string.
std::string i128_string(i128 v) {
  if (v == 0) return "0";
  const bool negative = v < 0;
  u128 mag = negative ? ~static_cast<u128>(v) + 1 : static_cast<u128>(v);
  std::string digits;
  while (mag != 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(mag % 10)));
    mag /= 10;
  }
  if (negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

/// BigInt from a little-endian magnitude, built through the public API.
BigInt from_limbs(const std::vector<std::uint32_t>& limbs, bool negative) {
  BigInt out;
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    out = out + BigInt(limbs[i]).shifted_left(static_cast<unsigned>(32 * i));
  }
  return negative ? -out : out;
}

BigInt from_i128(i128 v) {
  const bool negative = v < 0;
  u128 mag = negative ? ~static_cast<u128>(v) + 1 : static_cast<u128>(v);
  std::vector<std::uint32_t> limbs;
  for (; mag != 0; mag >>= 32) {
    limbs.push_back(static_cast<std::uint32_t>(mag & 0xffffffffu));
  }
  return from_limbs(limbs, negative);
}

/// Bit-serial reference normalize on plain limb vectors: strip one common
/// factor of two at a time.
void reference_normalize(std::vector<std::uint32_t>& num,
                         std::vector<std::uint32_t>& den) {
  const auto trim = [](std::vector<std::uint32_t>& v) {
    while (!v.empty() && v.back() == 0) v.pop_back();
  };
  const auto even = [](const std::vector<std::uint32_t>& v) {
    return v.empty() || (v[0] & 1u) == 0;
  };
  const auto halve = [&](std::vector<std::uint32_t>& v) {
    std::uint32_t carry = 0;
    for (std::size_t i = v.size(); i-- > 0;) {
      const std::uint32_t next = v[i] & 1u;
      v[i] = (v[i] >> 1) | (carry << 31);
      carry = next;
    }
    trim(v);
  };
  trim(num);
  trim(den);
  if (num.empty()) {
    den = {1};
    return;
  }
  while (even(num) && even(den)) {
    halve(num);
    halve(den);
  }
}

// ---------------------------------------------------------------------------
// Generators

/// int64 with a random bit width (so small and large magnitudes both
/// occur) and sign, plus the edge values now and then.
std::int64_t random_i64(Xoshiro256& rng) {
  static constexpr std::int64_t kEdges[] = {
      0, 1, -1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      std::int64_t{1} << 32, -(std::int64_t{1} << 32),
      (std::int64_t{1} << 32) - 1, std::int64_t{0xffffffff} << 31};
  if (rng() % 8 == 0) return kEdges[rng() % std::size(kEdges)];
  const unsigned width = static_cast<unsigned>(rng() % 64);
  const std::uint64_t mag = width == 0 ? 0 : rng() >> (64 - width);
  const auto v = static_cast<std::int64_t>(mag);
  return rng() % 2 == 0 ? v : -v;
}

std::vector<std::uint32_t> random_limbs(Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint32_t> limbs(n);
  for (auto& limb : limbs) limb = static_cast<std::uint32_t>(rng());
  if (n > 0 && limbs.back() == 0) limbs.back() = 1;
  return limbs;
}

/// A finite double with a random mantissa and a binary exponent in
/// [-lo, hi], nonzero, random sign.
double random_double(Xoshiro256& rng, int lo, int hi) {
  const double mant = 0.5 + 0.5 * rng.uniform01();
  const auto span = static_cast<std::uint64_t>(hi + lo + 1);
  const int exp = static_cast<int>(rng() % span) - lo;
  const double v = std::ldexp(mant, exp);
  return rng() % 2 == 0 ? v : -v;
}

/// A random dyadic, or now and then a general rational made the way the
/// checker makes them: a difference divided by a segment slope.
Rational random_rational(Xoshiro256& rng) {
  const Rational d = Rational::from_double(random_double(rng, 80, 80));
  if (rng() % 3 != 0) return d;
  const Rational slope = Rational::from_double(random_double(rng, 40, 40));
  return (d - Rational::from_double(random_double(rng, 60, 60))) / slope;
}

int sign(int v) { return (v > 0) - (v < 0); }

// ---------------------------------------------------------------------------
// BigInt against __int128

TEST(RationalProperty, BigIntMatchesInt128) {
  Xoshiro256 rng(0x5eed0001);
  const int cases = scaled_cases(2000);
  for (int i = 0; i < cases; ++i) {
    const std::int64_t a = random_i64(rng);
    const std::int64_t b = random_i64(rng);
    const std::int64_t c = random_i64(rng);
    const BigInt ba(a);
    const BigInt bb(b);
    const BigInt bc(c);
    const i128 wa = a;
    const i128 wb = b;
    const i128 wc = c;
    SCOPED_TRACE(std::to_string(a) + ", " + std::to_string(b) + ", " +
                 std::to_string(c));
    EXPECT_EQ(ba.to_string(), i128_string(wa));
    EXPECT_EQ((ba + bb).to_string(), i128_string(wa + wb));
    EXPECT_EQ((ba - bb).to_string(), i128_string(wa - wb));
    EXPECT_EQ((ba * bb).to_string(), i128_string(wa * wb));
    EXPECT_EQ(sign(ba.compare(bb)), (wa > wb) - (wa < wb));
    // Two-limb-and-more operands: a*b is up to 126 bits, and adding or
    // subtracting a 64-bit value still fits.
    const i128 wab = wa * wb;
    const BigInt bab = ba * bb;
    EXPECT_EQ((bab + bc).to_string(), i128_string(wab + wc));
    EXPECT_EQ((bab - bc).to_string(), i128_string(wab - wc));
    EXPECT_EQ(sign(bab.compare(bc)), (wab > wc) - (wab < wc));
    EXPECT_EQ(bab, from_i128(wab));
    const i128 wbc = wb * wc;
    EXPECT_EQ(sign(bab.compare(bb * bc)), (wab > wbc) - (wab < wbc));
    // Shifts within 127 bits.
    const unsigned s = static_cast<unsigned>(rng() % 63);
    EXPECT_EQ(ba.shifted_left(s).to_string(),
              i128_string(wa * (static_cast<i128>(1) << s)));
  }
}

// ---------------------------------------------------------------------------
// Rational field identities and order

TEST(RationalProperty, FieldIdentities) {
  Xoshiro256 rng(0x5eed0002);
  const int cases = scaled_cases(1000);
  for (int i = 0; i < cases; ++i) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    SCOPED_TRACE(a.to_string() + " and " + b.to_string());
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_TRUE((a - a).is_zero());
    EXPECT_EQ(a + (-a), Rational(0));
    if (!b.is_zero()) {
      EXPECT_EQ((a * b) / b, a);
      EXPECT_EQ((a / b) * b, a);
    }
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_EQ(a + Rational(0), a);
  }
}

TEST(RationalProperty, TotalOrderAgreesWithCrossMultiplication) {
  Xoshiro256 rng(0x5eed0003);
  const int cases = scaled_cases(1000);
  for (int i = 0; i < cases; ++i) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    const Rational c = random_rational(rng);
    SCOPED_TRACE(a.to_string() + ", " + b.to_string() + ", " + c.to_string());
    const int ab = a.compare(b);
    EXPECT_EQ(sign(ab), sign((a.num() * b.den()).compare(b.num() * a.den())));
    EXPECT_EQ(ab, -b.compare(a));
    EXPECT_EQ(ab == 0, a == b);
    // The sign of the difference decides the order.
    const Rational diff = a - b;
    EXPECT_EQ(sign(ab), diff.is_zero() ? 0 : (diff.is_negative() ? -1 : 1));
    if (a <= b && b <= c) {
      EXPECT_LE(a, c);
    }
    EXPECT_TRUE(Rational::min(a, b) <= Rational::max(a, b));
    EXPECT_TRUE(a.den().compare(BigInt(0)) > 0);
  }
  // On dyadics the order is the order of the source doubles.
  for (int i = 0; i < cases; ++i) {
    const double x = random_double(rng, 1074, 1023);
    const double y = rng() % 4 == 0 ? x : random_double(rng, 1074, 1023);
    EXPECT_EQ(sign(Rational::from_double(x).compare(Rational::from_double(y))),
              (x > y) - (x < y))
        << x << " vs " << y;
  }
}

// ---------------------------------------------------------------------------
// The inline/heap edge

// 2^255, 2^256 and 2^257 in decimal.
constexpr const char* kPow255 =
    "5789604461865809771178549250434395392663499233282028201972879200395"
    "6564819968";
constexpr const char* kPow256 =
    "1157920892373161954235709850086879078532699846656405640394575840079"
    "13129639936";
constexpr const char* kPow257 =
    "2315841784746323908471419700173758157065399693312811280789151680158"
    "26259279872";

TEST(RationalProperty, InlineHeapEdgeValues) {
  static_assert(BigInt::kInlineLimbs * 32 == 256);
  const BigInt one(1);
  const BigInt p255 = one.shifted_left(255);
  const BigInt p256 = one.shifted_left(256);
  const BigInt p257 = one.shifted_left(257);
  EXPECT_EQ(p255.to_string(), kPow255);
  EXPECT_EQ(p256.to_string(), kPow256);
  EXPECT_EQ(p257.to_string(), kPow257);
  // Upward across the edge: 2^256 - 1 is the largest inline magnitude.
  const BigInt max_inline = p256 - one;
  EXPECT_EQ(max_inline + one, p256);
  EXPECT_EQ((max_inline + max_inline) + BigInt(2), p257);
  EXPECT_EQ(p255 + p255, p256);
  // Downward across the edge: heap results that shrink back.
  EXPECT_EQ(p256 - one, max_inline);
  EXPECT_EQ(p257 - p256, p256);
  EXPECT_EQ(p257 - p257 - p255, -p255);
  EXPECT_TRUE((p257 - p257).is_zero());
  BigInt shrunk = p257;
  shrunk.shift_right(2);
  EXPECT_EQ(shrunk, p255);
  shrunk.shift_right(255);
  EXPECT_EQ(shrunk, one);
  // Products landing on each side of 256 bits.
  const BigInt p128 = one.shifted_left(128);
  EXPECT_EQ(p128 * p128, p256);
  EXPECT_EQ((p128 - one) * (p128 + one), max_inline);
  EXPECT_EQ(p128 * p128.shifted_left(1), p257);
  EXPECT_EQ(p255.compare(p256), -1);
  EXPECT_EQ(p257.compare(p256), 1);
  EXPECT_EQ((-p257).compare(-p256), -1);
  // Copies and moves of heap values.
  BigInt copy = p257;
  EXPECT_EQ(copy, p257);
  BigInt moved = std::move(copy);
  EXPECT_EQ(moved, p257);
  // NOLINTNEXTLINE(bugprone-use-after-move): moved-from is zero
  EXPECT_TRUE(copy.is_zero());
  copy = moved;
  EXPECT_EQ(copy, p257);
  copy = one;  // heap capacity reused for an inline-sized value
  EXPECT_EQ(copy, one);
  copy = p256;
  EXPECT_EQ(copy, p256);
}

TEST(RationalProperty, RandomValuesAcrossTheEdge) {
  Xoshiro256 rng(0x5eed0004);
  const int cases = scaled_cases(500);
  for (int i = 0; i < cases; ++i) {
    // 7..9 limbs with the top bit anywhere: 193..288 bits.
    const std::vector<std::uint32_t> la = random_limbs(rng, 7 + rng() % 3);
    const std::vector<std::uint32_t> lb = random_limbs(rng, 1 + rng() % 9);
    const BigInt a = from_limbs(la, rng() % 2 == 0);
    const BigInt b = from_limbs(lb, rng() % 2 == 0);
    SCOPED_TRACE(a.to_string() + ", " + b.to_string());
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * b - a * b, BigInt(0));
    EXPECT_EQ((a + b) * b, a * b + b * b);
    const unsigned s = static_cast<unsigned>(rng() % 70);
    BigInt back = a.shifted_left(s);
    back.shift_right(s);
    EXPECT_EQ(back, a);
    const Rational r(a, b.is_zero() ? BigInt(1) : b);
    const Rational q = Rational::from_double(random_double(rng, 300, 300));
    EXPECT_EQ((r + q) - q, r);
    EXPECT_EQ((r * q) / q, r);
  }
}

// ---------------------------------------------------------------------------
// INT64_MIN

TEST(RationalProperty, Int64Min) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const BigInt m(kMin);
  EXPECT_EQ(m.to_string(), "-9223372036854775808");
  EXPECT_EQ((-m).to_string(), "9223372036854775808");
  EXPECT_EQ((m + m).to_string(), i128_string(static_cast<i128>(kMin) * 2));
  EXPECT_EQ((m * m).to_string(),
            i128_string(static_cast<i128>(kMin) * kMin));
  EXPECT_EQ((m - m), BigInt(0));
  EXPECT_EQ(m + BigInt(std::numeric_limits<std::int64_t>::max()), BigInt(-1));
  EXPECT_EQ(m.trailing_zeros(), 63u);
  EXPECT_EQ(Rational(kMin), Rational::from_double(-0x1.0p63));
  EXPECT_EQ(Rational(kMin) / Rational(-1),
            Rational::from_double(0x1.0p63));
  EXPECT_EQ(Rational(BigInt(kMin), BigInt(kMin)), Rational(1));
  EXPECT_EQ(Rational(BigInt(1), BigInt(kMin)).to_string(),
            "-1/9223372036854775808");
}

// ---------------------------------------------------------------------------
// Self-aliasing and moved-from reuse

TEST(RationalProperty, SelfAliasing) {
  const BigInt p200 = BigInt(3).shifted_left(200);
  for (const BigInt& start : {BigInt(-7), p200, p200.shifted_left(100)}) {
    SCOPED_TRACE(start.to_string());
    BigInt x = start;
    x = x + x;
    EXPECT_EQ(x, start.shifted_left(1));
    x = start;
    x = x * x;
    EXPECT_EQ(x.to_string(), (start * start).to_string());
    x = start;
    x = x - x;
    EXPECT_TRUE(x.is_zero());
    x = start;
    BigInt& alias = x;
    x = alias;
    EXPECT_EQ(x, start);
    x = std::move(alias);
    EXPECT_EQ(x, start);
    BigInt y = std::move(x);
    EXPECT_EQ(y, start);
    x = x + BigInt(5);  // NOLINT(bugprone-use-after-move): moved-from is zero
    EXPECT_EQ(x, BigInt(5));
    x = std::move(y);
    EXPECT_EQ(x, start);
    y = start * BigInt(2);  // reuse of a moved-from variable
    EXPECT_EQ(y, start + start);
  }
  Rational r = Rational::from_double(1e-90);  // heap-sized denominator
  const Rational r0 = r;
  r = r + r;
  EXPECT_EQ(r, r0 * Rational(2));
  r = r0;
  r = r * r;
  EXPECT_EQ(r, r0 * r0);
  r = r0;
  r = r / r;
  EXPECT_EQ(r, Rational(1));
  r = r0;
  const Rational& ralias = r;
  r = ralias;
  EXPECT_EQ(r, r0);
  Rational s = std::move(r);
  EXPECT_EQ(s, r0);
  r = Rational(3);  // moved-from Rational reused after assignment
  EXPECT_EQ(r + s, Rational(3) + r0);
}

// ---------------------------------------------------------------------------
// normalize against the bit-serial reference

TEST(RationalProperty, NormalizeMatchesBitSerialReference) {
  Xoshiro256 rng(0x5eed0005);
  const int cases = scaled_cases(1000);
  for (int i = 0; i < cases; ++i) {
    // Random odd-or-even parts, shifted by random trailing zero counts so
    // the common power of two crosses limb boundaries and the 256-bit edge.
    std::vector<std::uint32_t> num = random_limbs(rng, rng() % 10);
    std::vector<std::uint32_t> den = random_limbs(rng, 1 + rng() % 10);
    const unsigned num_shift = static_cast<unsigned>(rng() % 300);
    const unsigned den_shift = static_cast<unsigned>(rng() % 300);
    const bool num_negative = rng() % 2 == 0;
    const bool den_negative = rng() % 4 == 0;
    const BigInt bnum = from_limbs(num, num_negative).shifted_left(num_shift);
    const BigInt bden = from_limbs(den, den_negative).shifted_left(den_shift);
    SCOPED_TRACE(bnum.to_string() + " / " + bden.to_string());
    const Rational r(bnum, bden);

    std::vector<std::uint32_t> ref_num(num_shift / 32, 0);
    ref_num.insert(ref_num.end(), num.begin(), num.end());
    std::vector<std::uint32_t> ref_den(den_shift / 32, 0);
    ref_den.insert(ref_den.end(), den.begin(), den.end());
    // Apply the sub-limb part of the shifts through the reference's own
    // doubling, so the reference never calls shifted_left.
    const auto twice = [](std::vector<std::uint32_t>& v) {
      std::uint32_t carry = 0;
      for (auto& limb : v) {
        const std::uint32_t next = limb >> 31;
        limb = (limb << 1) | carry;
        carry = next;
      }
      if (carry != 0) v.push_back(carry);
    };
    for (unsigned k = 0; k < num_shift % 32; ++k) twice(ref_num);
    for (unsigned k = 0; k < den_shift % 32; ++k) twice(ref_den);
    reference_normalize(ref_num, ref_den);
    const bool negative = !ref_num.empty() && num_negative != den_negative;
    EXPECT_EQ(r.num(), from_limbs(ref_num, negative));
    EXPECT_EQ(r.den(), from_limbs(ref_den, false));
    EXPECT_FALSE(r.den().is_negative());
  }
}

// ---------------------------------------------------------------------------
// The power-of-two path against products, with zero tolerance

/// Little-endian limbs of |v|, parsed from its decimal rendering with limb
/// arithmetic only (no BigInt shift or product).
std::vector<std::uint32_t> limbs_of(const BigInt& v) {
  std::vector<std::uint32_t> limbs;
  for (const char c : v.to_string()) {
    if (c == '-') continue;
    std::uint64_t carry = static_cast<std::uint64_t>(c - '0');
    for (auto& limb : limbs) {
      const std::uint64_t cur = std::uint64_t{limb} * 10 + carry;
      limb = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    if (carry != 0) limbs.push_back(static_cast<std::uint32_t>(carry));
  }
  return limbs;
}

/// The value num/den in Rational's representation, computed without
/// Rational: sign onto the numerator, then the bit-serial normalize.
struct Reduced {
  bool negative = false;
  std::vector<std::uint32_t> num;
  std::vector<std::uint32_t> den;
};

Reduced reference_reduce(const BigInt& num, const BigInt& den) {
  Reduced out{num.is_negative() != den.is_negative(), limbs_of(num),
              limbs_of(den)};
  reference_normalize(out.num, out.den);
  if (out.num.empty()) out.negative = false;
  return out;
}

void expect_matches(const Rational& got, const Reduced& want) {
  EXPECT_EQ(got.is_negative(), want.negative);
  EXPECT_EQ(limbs_of(got.num()), want.num);
  EXPECT_EQ(limbs_of(got.den()), want.den);
  EXPECT_FALSE(got.den().is_negative());
}

/// 2^e as limbs, so operands get exact power-of-two denominators.
BigInt pow2(unsigned e) {
  std::vector<std::uint32_t> limbs(e / 32 + 1, 0);
  limbs.back() = std::uint32_t{1} << (e % 32);
  return from_limbs(limbs, false);
}

/// A numerator of 0..9 limbs (across the 8-limb inline edge) with
/// trailing zero bits now and then, so reductions cross limb boundaries.
BigInt random_numerator(Xoshiro256& rng) {
  if (rng() % 16 == 0) return BigInt(0);
  BigInt n = from_limbs(random_limbs(rng, 1 + rng() % 9), rng() % 2 == 0);
  if (rng() % 3 == 0) n = n * pow2(static_cast<unsigned>(rng() % 40));
  return n;
}

/// A denominator with at least two set bits (so not a power of two),
/// sometimes even.
BigInt general_denominator(Xoshiro256& rng) {
  std::vector<std::uint32_t> limbs = random_limbs(rng, 1 + rng() % 4);
  limbs[0] |= 1u;
  if (limbs.size() == 1 && (limbs[0] & (limbs[0] - 1)) == 0) limbs[0] |= 2u;
  BigInt d = from_limbs(limbs, false);
  if (rng() % 3 == 0) d = d * pow2(static_cast<unsigned>(rng() % 40));
  return d;
}

/// Every operator on (a, b) against the product formulas, and the
/// results fed on through one more operator each, so a result whose
/// cached exponent disagreed with its denominator would show.
void check_against_products(const Rational& a, const Rational& b,
                            const Rational& c) {
  SCOPED_TRACE(a.to_string() + " op " + b.to_string() + " then " +
               c.to_string());
  const BigInt& an = a.num();
  const BigInt& ad = a.den();
  const BigInt& bn = b.num();
  const BigInt& bd = b.den();
  const Rational results[] = {a + b, a - b, a * b,
                              b.is_zero() ? a : a / b};
  expect_matches(results[0], reference_reduce(an * bd + bn * ad, ad * bd));
  expect_matches(results[1], reference_reduce(an * bd - bn * ad, ad * bd));
  expect_matches(results[2], reference_reduce(an * bn, ad * bd));
  if (!b.is_zero()) {
    expect_matches(results[3], reference_reduce(an * bd, ad * bn));
  }
  EXPECT_EQ(a.compare(b), sign((an * bd).compare(bn * ad)));
  EXPECT_EQ(b.compare(a), sign((bn * ad).compare(an * bd)));
  for (const Rational& r : results) {
    const BigInt& rn = r.num();
    const BigInt& rd = r.den();
    const BigInt& cn = c.num();
    const BigInt& cd = c.den();
    expect_matches(r + c, reference_reduce(rn * cd + cn * rd, rd * cd));
    expect_matches(c - r, reference_reduce(cn * rd - rn * cd, cd * rd));
    expect_matches(r * c, reference_reduce(rn * cn, rd * cd));
    EXPECT_EQ(r.compare(c), sign((rn * cd).compare(cn * rd)));
  }
}

TEST(RationalProperty, PowerOfTwoPathMatchesProductsExactly) {
  Xoshiro256 rng(0x5eed0007);
  // Exponent gaps at and around the limb size, and denominator 1.
  constexpr unsigned kGaps[] = {0, 31, 32, 33, 64};
  const int cases = scaled_cases(400);
  for (int i = 0; i < cases; ++i) {
    const auto base = static_cast<unsigned>(rng() % 260);
    const unsigned gap = kGaps[rng() % std::size(kGaps)];
    const unsigned ea = rng() % 8 == 0 ? 0 : base;
    const unsigned eb = rng() % 2 == 0 ? ea + gap : (ea >= gap ? ea - gap : 0);
    const Rational dyadic_a(random_numerator(rng), pow2(ea));
    const Rational dyadic_b(random_numerator(rng), pow2(eb));
    const Rational general_a(random_numerator(rng), general_denominator(rng));
    const Rational general_b(random_numerator(rng), general_denominator(rng));
    const Rational& c = rng() % 2 == 0 ? dyadic_b : general_b;
    check_against_products(dyadic_a, dyadic_b, c);
    check_against_products(dyadic_a, general_b, c);
    check_against_products(general_a, dyadic_b, c);
    check_against_products(general_a, general_b, c);
    // Results that cancel to zero, and zero operands.
    check_against_products(dyadic_a, dyadic_a, dyadic_b);
    check_against_products(dyadic_a, -dyadic_a, general_b);
    check_against_products(general_a, general_a, dyadic_b);
    check_against_products(Rational(0), dyadic_b, dyadic_a);
  }
}

TEST(RationalProperty, CompareLengthPreCheckEdges) {
  // Operand pairs whose len(num) - len(den) differ by -3..3, at the
  // bottom and top of each length's magnitude range: a numerator scaled
  // by 2^-2..2^2 and nudged by one, over the same or a nudged denominator.
  Xoshiro256 rng(0x5eed0008);
  const int cases = scaled_cases(300);
  for (int i = 0; i < cases; ++i) {
    const bool dyadic = rng() % 2 == 0;
    const BigInt den = dyadic ? pow2(static_cast<unsigned>(rng() % 100))
                              : general_denominator(rng);
    const std::vector<std::uint32_t> top =
        random_limbs(rng, 1 + rng() % 9);
    // The numerator's magnitude is 2^k, 2^k - 1, or random.
    BigInt num = from_limbs(top, false);
    const unsigned k = static_cast<unsigned>(rng() % 200) + 4;
    if (rng() % 3 == 0) num = pow2(k);
    if (rng() % 3 == 0) num = pow2(k) - BigInt(1);
    const Rational a(num, den);
    for (int scale = -2; scale <= 2; ++scale) {
      for (int nudge = -1; nudge <= 1; ++nudge) {
        BigInt bn = num;
        if (scale > 0) bn = bn * pow2(static_cast<unsigned>(scale));
        if (scale < 0) bn.shift_right(static_cast<unsigned>(-scale));
        bn = bn + BigInt(nudge);
        const BigInt bd = rng() % 4 == 0 ? den + BigInt(1) : den;
        if (bn.is_zero()) continue;
        const Rational b(bn, bd);
        SCOPED_TRACE(a.to_string() + " vs " + b.to_string());
        EXPECT_EQ(a.compare(b), sign((a.num() * b.den()).compare(
                                    b.num() * a.den())));
        EXPECT_EQ((-a).compare(-b), sign((b.num() * a.den()).compare(
                                        a.num() * b.den())));
        EXPECT_EQ(b.compare(a), -a.compare(b));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// round_up_double over the whole double range

TEST(RationalProperty, RoundUpDoubleIsSmallestDominating) {
  Xoshiro256 rng(0x5eed0006);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int cases = scaled_cases(500);
  for (int i = 0; i < cases; ++i) {
    // A non-dyadic quotient scaled anywhere from below the subnormals to
    // above the largest double.
    const Rational q(BigInt(static_cast<std::int64_t>(rng() >> 11) | 1),
                     BigInt(static_cast<std::int64_t>(rng() >> 40) | 1));
    const int exp = static_cast<int>(rng() % 2200) - 1150;
    const BigInt pow2 =
        BigInt(1).shifted_left(static_cast<unsigned>(exp >= 0 ? exp : -exp));
    const Rational scale = exp >= 0 ? Rational(pow2, 1) : Rational(1, pow2);
    const Rational r = rng() % 2 == 0 ? q * scale : -(q * scale);
    SCOPED_TRACE(r.to_string());
    const double d = r.round_up_double();
    if (std::isinf(d)) {
      EXPECT_GT(d, 0.0);
      EXPECT_LT(Rational::from_double(std::numeric_limits<double>::max()), r);
      continue;
    }
    EXPECT_GE(Rational::from_double(d), r);
    const double below = std::nextafter(d, -kInf);
    if (std::isfinite(below)) {
      EXPECT_LT(Rational::from_double(below), r);
    }
  }
}

}  // namespace
}  // namespace streamcalc::util
