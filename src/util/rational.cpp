#include "util/rational.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace streamcalc::util {

// --- BigInt ----------------------------------------------------------------

BigInt::BigInt(std::int64_t v) {
  negative_ = v < 0;
  // Negate via uint64 so INT64_MIN does not overflow.
  std::uint64_t mag =
      negative_ ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  while (mag != 0) {
    inline_[size_++] = static_cast<std::uint32_t>(mag & 0xffffffffu);
    mag >>= 32;
  }
}

BigInt::BigInt(const BigInt& o) { *this = o; }

BigInt::BigInt(BigInt&& o) noexcept { take(o); }

BigInt& BigInt::operator=(const BigInt& o) {
  if (this != &o) {
    reset_size(o.size_);
    std::copy_n(o.limbs(), o.size_, limbs());
    negative_ = o.negative_;
  }
  return *this;
}

BigInt& BigInt::operator=(BigInt&& o) noexcept {
  if (this != &o) {
    free_heap();
    take(o);
  }
  return *this;
}

void BigInt::take(BigInt& o) noexcept {
  size_ = o.size_;
  capacity_ = o.capacity_;
  negative_ = o.negative_;
  if (o.on_heap()) {
    heap_ = o.heap_;
  } else {
    std::copy_n(o.inline_, o.size_, inline_);
  }
  o.size_ = 0;
  o.capacity_ = kInlineLimbs;
  o.negative_ = false;
}

BigInt::~BigInt() { free_heap(); }

void BigInt::free_heap() {
  if (on_heap()) {
    delete[] heap_;
    capacity_ = kInlineLimbs;
  }
}

void BigInt::reset_size(std::size_t n) {
  if (n > capacity_) {
    free_heap();
    size_ = 0;  // keep the object valid if the allocation throws
    SC_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
    heap_ = new std::uint32_t[n];
    capacity_ = static_cast<std::uint32_t>(n);
  }
  size_ = static_cast<std::uint32_t>(n);
}

void BigInt::trim() {
  const std::uint32_t* l = limbs();
  while (size_ > 0 && l[size_ - 1] == 0) --size_;
  if (size_ == 0) negative_ = false;
}

int BigInt::compare_magnitude(const BigInt& a, const BigInt& b) {
  if (a.size_ != b.size_) return a.size_ < b.size_ ? -1 : 1;
  const std::uint32_t* x = a.limbs();
  const std::uint32_t* y = b.limbs();
  for (std::size_t i = a.size_; i-- > 0;) {
    if (x[i] != y[i]) return x[i] < y[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::add_magnitude(const BigInt& a, const BigInt& b) {
  BigInt out;
  const std::size_t n = std::max(a.size_, b.size_);
  out.reset_size(n + 1);
  const std::uint32_t* x = a.limbs();
  const std::uint32_t* y = b.limbs();
  std::uint32_t* o = out.limbs();
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.size_) sum += x[i];
    if (i < b.size_) sum += y[i];
    o[i] = static_cast<std::uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  o[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigInt BigInt::sub_magnitude(const BigInt& a, const BigInt& b) {
  SC_ASSERT(compare_magnitude(a, b) >= 0);
  BigInt out;
  out.reset_size(a.size_);
  const std::uint32_t* x = a.limbs();
  const std::uint32_t* y = b.limbs();
  std::uint32_t* o = out.limbs();
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size_; ++i) {
    std::int64_t diff = static_cast<std::int64_t>(x[i]) - borrow;
    if (i < b.size_) diff -= static_cast<std::int64_t>(y[i]);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(1) << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    o[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::add_signed(const BigInt& a, const BigInt& b,
                          bool b_negative) {
  if (a.negative_ == b_negative) {
    BigInt out = add_magnitude(a, b);
    // Equal signs: b_negative implies a < 0, so the sum is nonzero.
    out.negative_ = b_negative;
    return out;
  }
  const int cmp = compare_magnitude(a, b);
  if (cmp == 0) return BigInt{};
  BigInt out = cmp > 0 ? sub_magnitude(a, b) : sub_magnitude(b, a);
  out.negative_ = cmp > 0 ? a.negative_ : b_negative;
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  return add_signed(*this, o, o.negative_);
}

BigInt BigInt::operator-(const BigInt& o) const {
  return add_signed(*this, o, !o.negative_);
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt{};
  BigInt out;
  out.reset_size(static_cast<std::size_t>(size_) + o.size_);
  const std::uint32_t* x = limbs();
  const std::uint32_t* y = o.limbs();
  std::uint32_t* r = out.limbs();
  std::fill_n(r, out.size_, 0u);
  for (std::size_t i = 0; i < size_; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < o.size_; ++j) {
      std::uint64_t cur = static_cast<std::uint64_t>(x[i]) * y[j] +
                          r[i + j] + carry;
      r[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + o.size_;
    while (carry != 0) {
      const std::uint64_t cur = r[k] + carry;
      r[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  out.negative_ = negative_ != o.negative_;
  out.trim();
  return out;
}

BigInt BigInt::shifted_left(unsigned bits) const {
  if (is_zero() || bits == 0) return *this;
  BigInt out;
  const std::size_t whole = bits / 32;
  const unsigned rem = bits % 32;
  out.reset_size(whole + size_ + 1);
  const std::uint32_t* x = limbs();
  std::uint32_t* r = out.limbs();
  std::fill_n(r, whole, 0u);
  std::uint32_t carry = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::uint64_t cur =
        (static_cast<std::uint64_t>(x[i]) << rem) | carry;
    r[whole + i] = static_cast<std::uint32_t>(cur & 0xffffffffu);
    carry = static_cast<std::uint32_t>(cur >> 32);
  }
  r[whole + size_] = carry;
  out.negative_ = negative_;
  out.trim();
  return out;
}

void BigInt::shift_right(unsigned bits) {
  if (is_zero() || bits == 0) return;
  const std::size_t whole = bits / 32;
  const unsigned rem = bits % 32;
  if (whole >= size_) {
    size_ = 0;
    negative_ = false;
    return;
  }
  std::uint32_t* l = limbs();
  const std::size_t n = size_ - whole;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t cur = l[i + whole];
    if (i + 1 < n) cur |= static_cast<std::uint64_t>(l[i + whole + 1]) << 32;
    l[i] = static_cast<std::uint32_t>(cur >> rem);
  }
  size_ = static_cast<std::uint32_t>(n);
  trim();
}

unsigned BigInt::trailing_zeros() const {
  SC_ASSERT(!is_zero());
  const std::uint32_t* l = limbs();
  unsigned i = 0;
  while (l[i] == 0) ++i;
  return i * 32 + static_cast<unsigned>(std::countr_zero(l[i]));
}

unsigned BigInt::bit_length() const {
  if (is_zero()) return 0;
  return size_ * 32 -
         static_cast<unsigned>(std::countl_zero(limbs()[size_ - 1]));
}

int BigInt::compare(const BigInt& o) const {
  if (negative_ != o.negative_) return negative_ ? -1 : 1;
  const int mag = compare_magnitude(*this, o);
  return negative_ ? -mag : mag;
}

double BigInt::frexp(std::int64_t* exp) const {
  if (is_zero()) {
    *exp = 0;
    return 0.0;
  }
  const std::uint32_t* l = limbs();
  const std::size_t n = size_;
  const auto lead = static_cast<unsigned>(std::countl_zero(l[n - 1]));
  // The top three limbs as a 96-bit window; shift its leading one to bit
  // 95 and keep bits 95..32.
  const std::uint64_t hi = l[n - 1];
  const std::uint64_t mid = n >= 2 ? l[n - 2] : 0;
  const std::uint64_t lo = n >= 3 ? l[n - 3] : 0;
  const std::uint64_t top =
      (((hi << 32) | mid) << lead) | ((lo << lead) >> 32);
  *exp = static_cast<std::int64_t>(n * 32 - lead);
  return std::ldexp(static_cast<double>(top), -64);
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  std::vector<std::uint32_t> work(limbs(), limbs() + size_);
  std::string digits;
  while (!work.empty()) {
    // Divide the magnitude by 1e9, collecting the remainder.
    std::uint64_t rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | work[i];
      work[i] = static_cast<std::uint32_t>(cur / 1000000000u);
      rem = cur % 1000000000u;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

// --- Rational --------------------------------------------------------------

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  util::require(!den_.is_zero(), "Rational denominator must be non-zero");
  normalize();
}

void Rational::normalize() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = 1;
    den_log2_ = 0;
    return;
  }
  // Reduce by the common power of two only, in one shift. Checker values
  // start as dyadic rationals (exact doubles, denominator a power of two),
  // where this is a full reduction; the few general rationals produced by
  // pseudo-inverse divisions live through expressions of small bounded
  // depth, so skipping the full gcd never lets the limb counts grow
  // meaningfully.
  const unsigned den_zeros = den_.trailing_zeros();
  const unsigned shift = std::min(num_.trailing_zeros(), den_zeros);
  num_.shift_right(shift);
  den_.shift_right(shift);
  // A power of two is the one magnitude whose lowest set bit is its top.
  den_log2_ = den_zeros - shift + 1 == den_.bit_length()
                  ? static_cast<int>(den_zeros - shift)
                  : -1;
}

BigInt Rational::times_den(const BigInt& x) const {
  return den_log2_ >= 0 ? x.shifted_left(static_cast<unsigned>(den_log2_))
                        : x * den_;
}

BigInt Rational::den_product(const Rational& o) const {
  return den_log2_ >= 0 ? times_den(o.den_) : o.times_den(den_);
}

Rational Rational::from_double(double v) {
  util::require(std::isfinite(v),
                "Rational::from_double requires a finite value");
  if (v == 0.0) return Rational{};
  int exp = 0;
  // frexp: v = mant * 2^exp with |mant| in [0.5, 1). Scale the mantissa to
  // an odd-width integer: mant * 2^53 is integral for every finite double.
  const double mant = std::frexp(v, &exp);
  const auto scaled = static_cast<std::int64_t>(std::ldexp(mant, 53));
  exp -= 53;
  BigInt num(scaled);
  BigInt den(1);
  if (exp >= 0) {
    num = num.shifted_left(static_cast<unsigned>(exp));
  } else {
    den = den.shifted_left(static_cast<unsigned>(-exp));
  }
  return Rational(std::move(num), std::move(den));
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::add(const Rational& o, bool subtract) const {
  const auto combine = [subtract](const BigInt& x, const BigInt& y) {
    return subtract ? x - y : x + y;
  };
  if (den_log2_ >= 0 && o.den_log2_ >= 0) {
    // Both dyadic: scale the numerator with the smaller exponent up to the
    // larger one, whose denominator is the common one.
    if (den_log2_ >= o.den_log2_) {
      const auto gap = static_cast<unsigned>(den_log2_ - o.den_log2_);
      return Rational(combine(num_, o.num_.shifted_left(gap)), den_);
    }
    const auto gap = static_cast<unsigned>(o.den_log2_ - den_log2_);
    return Rational(combine(num_.shifted_left(gap), o.num_), o.den_);
  }
  return Rational(combine(o.times_den(num_), times_den(o.num_)),
                  den_product(o));
}

Rational Rational::operator+(const Rational& o) const {
  return add(o, false);
}

Rational Rational::operator-(const Rational& o) const {
  return add(o, true);
}

Rational Rational::operator*(const Rational& o) const {
  return Rational(num_ * o.num_, den_product(o));
}

Rational Rational::operator/(const Rational& o) const {
  util::require(!o.is_zero(), "Rational division by zero");
  return Rational(o.times_den(num_), times_den(o.num_));
}

int Rational::compare(const Rational& o) const {
  // Most checker comparisons are settled by the signs (many are against
  // zero) or share a denominator; only the rest need the two products.
  const int sign = num_.is_zero() ? 0 : (num_.is_negative() ? -1 : 1);
  const int o_sign = o.num_.is_zero() ? 0 : (o.num_.is_negative() ? -1 : 1);
  if (sign != o_sign) return sign < o_sign ? -1 : 1;
  if (sign == 0) return 0;
  if (den_ == o.den_) return num_.compare(o.num_);
  // With L = len(num) - len(den), the magnitude lies strictly between
  // 2^(L-1) and 2^(L+1), so an L two or more apart orders the magnitudes.
  const auto length_gap =
      (static_cast<std::int64_t>(num_.bit_length()) - den_.bit_length()) -
      (static_cast<std::int64_t>(o.num_.bit_length()) - o.den_.bit_length());
  if (length_gap >= 2) return sign;
  if (length_gap <= -2) return -sign;
  if (den_log2_ >= 0 && o.den_log2_ >= 0) {
    // Both dyadic: bring the smaller exponent up to the larger one.
    if (den_log2_ >= o.den_log2_) {
      const auto gap = static_cast<unsigned>(den_log2_ - o.den_log2_);
      return num_.compare(o.num_.shifted_left(gap));
    }
    const auto gap = static_cast<unsigned>(o.den_log2_ - den_log2_);
    return num_.shifted_left(gap).compare(o.num_);
  }
  // Denominators are positive, so cross-multiplication preserves order.
  return o.times_den(num_).compare(times_den(o.num_));
}

Rational Rational::min(const Rational& a, const Rational& b) {
  return a <= b ? a : b;
}

Rational Rational::max(const Rational& a, const Rational& b) {
  return a >= b ? a : b;
}

double Rational::approx() const {
  if (num_.is_zero()) return 0.0;
  std::int64_t num_exp = 0;
  std::int64_t den_exp = 0;
  const double num_mant = num_.frexp(&num_exp);
  const double den_mant = den_.frexp(&den_exp);
  // Beyond +-4096 the quotient is 0 or inf whatever the mantissas are.
  const std::int64_t exp =
      std::clamp<std::int64_t>(num_exp - den_exp, -4096, 4096);
  const double mag = std::ldexp(num_mant / den_mant, static_cast<int>(exp));
  return num_.is_negative() ? -mag : mag;
}

double Rational::round_up_double() const {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Correct the nearest-guess onto the smallest double >= *this. The seed
  // is within a few ulps, so both loops terminate almost immediately.
  const double d0 = approx();
  double d = std::isinf(d0) ? std::copysign(kMax, d0) : d0;
  while (Rational::from_double(d) < *this) {
    if (d == kMax) return kInf;
    d = std::nextafter(d, kInf);
  }
  while (true) {
    const double lower = std::nextafter(d, -kInf);
    if (!std::isfinite(lower) || Rational::from_double(lower) < *this) break;
    d = lower;
  }
  return d;
}

std::string Rational::to_string() const {
  if (den_.compare(1) == 0) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

}  // namespace streamcalc::util
