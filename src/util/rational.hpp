// Exact arbitrary-precision rational arithmetic for the certificate
// checker (src/certify).
//
// The fast network-calculus kernels compute on doubles; the proof-carrying
// verification layer re-evaluates every emitted bound on exact rationals so
// a rounding bug in the kernels cannot certify itself. Every finite double
// is a dyadic rational (m * 2^e with |m| < 2^53), so conversion from the
// curve breakpoints is *exact* — Rational::from_double introduces no error
// whatsoever. Sums, differences, and products of dyadic rationals stay
// dyadic; the pseudo-inverse steps of the delay-bound check divide by
// segment slopes, which is where general rationals become necessary.
//
// The implementation is deliberately minimal: sign-magnitude big integers
// over 32-bit limbs with schoolbook multiplication, and one number path.
// Simplicity and obvious correctness are the point (this class is part of
// the verification trust base, see DESIGN.md §9), but this arithmetic is
// also the largest layer of the certify path (analyze runs certification
// only as an opt-in post-flight), so the storage is sized to the values
// the checker actually makes. Over the arithmetic results (sums,
// differences, products, shifts) of certifying examples/specs/*.scspec
// and the blast_base fixture, the limb counts are 1: 11%, 2: 35%,
// 3: 23%, 4: 22%, 5: 7%, 6: 1.9%, 7-8: 0.2%, and more than 8 only 0.13%
// (the 34- and 36-limb subnormal probes of round_up_double). A BigInt
// therefore keeps up to eight limbs (256 bits) inside the object and
// moves to the heap only beyond that, so almost no checker temporary
// allocates.
//
// Most checker values stay dyadic (denominator a power of two), so
// Rational caches the exponent of such a denominator and trades a BigInt
// product for a shift wherever that denominator would multiply: a
// dyadic sum aligns on the larger exponent (one shift, one add), a
// product or quotient shifts by each dyadic denominator, and a compare
// first orders the values by bit lengths and then shifts one side. Each
// shift yields exactly the BigInt the product would, and a dyadic value
// has one reduced form, so every result is the one the plain
// cross-multiplying formulas give. More than half of the values need
// over 64 bits in (num, den) form; a machine-word path for numerators
// under 2^63 on top of the shifts gained only +0.6% certify throughput
// in perfbench's analyze workload and was not kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace streamcalc::util {

/// Arbitrary-precision signed integer (sign + 32-bit little-endian limbs,
/// the first kInlineLimbs of them stored inline). Supports exactly the
/// operations the rational layer needs.
class BigInt {
 public:
  /// Magnitudes up to this many limbs (256 bits) need no allocation.
  static constexpr std::size_t kInlineLimbs = 8;

  BigInt() = default;
  BigInt(std::int64_t v);  // NOLINT(google-explicit-constructor): numeric
                           // literals in checker expressions read naturally.
  BigInt(const BigInt& o);
  /// Moves leave `o` zero, so a moved-from BigInt is usable as is.
  BigInt(BigInt&& o) noexcept;
  BigInt& operator=(const BigInt& o);
  BigInt& operator=(BigInt&& o) noexcept;
  ~BigInt();

  bool is_zero() const { return size_ == 0; }
  bool is_negative() const { return negative_; }

  BigInt operator-() const;
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;

  /// Shift the magnitude left by `bits` (multiply by 2^bits).
  BigInt shifted_left(unsigned bits) const;
  /// In-place magnitude shift right by `bits` (divide by 2^bits, toward
  /// zero).
  void shift_right(unsigned bits);
  /// Number of trailing zero bits of the magnitude. Requires !is_zero().
  unsigned trailing_zeros() const;
  /// Number of significant bits of the magnitude; 0 for zero.
  unsigned bit_length() const;

  /// Three-way comparison: -1, 0, +1.
  int compare(const BigInt& o) const;
  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }

  /// The magnitude as m * 2^exp, with m in [0.5, 1] rounded from its top
  /// 64 bits: std::frexp without the overflow of the double range. Zero
  /// gives m = 0. Used only for approximations, never for exact decisions.
  double frexp(std::int64_t* exp) const;

  /// Decimal rendering for failure messages.
  std::string to_string() const;

 private:
  bool on_heap() const { return capacity_ > kInlineLimbs; }
  std::uint32_t* limbs() { return on_heap() ? heap_ : inline_; }
  const std::uint32_t* limbs() const { return on_heap() ? heap_ : inline_; }
  /// Discards the magnitude and makes room for `n` limbs; size_ becomes n
  /// and the limb values are unspecified.
  void reset_size(std::size_t n);
  void free_heap();
  /// Moves o's magnitude and sign here and leaves o zero. Requires this
  /// to own no heap buffer.
  void take(BigInt& o) noexcept;
  static int compare_magnitude(const BigInt& a, const BigInt& b);
  /// a + b with b's sign taken as `b_negative` (so a - b needs no copy).
  static BigInt add_signed(const BigInt& a, const BigInt& b, bool b_negative);
  static BigInt add_magnitude(const BigInt& a, const BigInt& b);
  /// Requires |a| >= |b|.
  static BigInt sub_magnitude(const BigInt& a, const BigInt& b);
  void trim();

  std::uint32_t size_ = 0;  ///< limbs in use; no leading zero limbs
  std::uint32_t capacity_ = kInlineLimbs;
  bool negative_ = false;
  // Only the first size_ limbs are ever read, so inline_ is not zeroed
  // on construction, a cost every arithmetic temporary would pay.
  union {
    std::uint32_t inline_[kInlineLimbs];  ///< when capacity_ == kInlineLimbs
    std::uint32_t* heap_;                 ///< when capacity_ > kInlineLimbs
  };
};

/// An exact rational number num/den, den > 0, reduced by the common power
/// of two (a full reduction for dyadic values; see normalize()). A
/// power-of-two denominator is also kept as its exponent, so arithmetic
/// on dyadic values shifts where it would otherwise multiply.
class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  // NOLINTNEXTLINE(google-explicit-constructor): numeric promotion, like BigInt
  Rational(std::int64_t v) : num_(v), den_(1) {}
  Rational(BigInt num, BigInt den);

  /// Exact value of a finite double (every finite double is dyadic).
  /// Throws PreconditionError for NaN or infinity — callers must branch on
  /// finiteness first.
  static Rational from_double(double v);

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool is_zero() const { return num_.is_zero(); }
  bool is_negative() const { return num_.is_negative(); }

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  /// Requires o != 0.
  Rational operator/(const Rational& o) const;

  int compare(const Rational& o) const;
  bool operator==(const Rational& o) const { return compare(o) == 0; }
  bool operator!=(const Rational& o) const { return compare(o) != 0; }
  bool operator<(const Rational& o) const { return compare(o) < 0; }
  bool operator<=(const Rational& o) const { return compare(o) <= 0; }
  bool operator>(const Rational& o) const { return compare(o) > 0; }
  bool operator>=(const Rational& o) const { return compare(o) >= 0; }

  static Rational min(const Rational& a, const Rational& b);
  static Rational max(const Rational& a, const Rational& b);

  /// A double within a few ulps of the value, for any magnitude of
  /// numerator and denominator (the quotient of their top 64 bits, scaled
  /// by the difference of their bit lengths). For display and as the
  /// starting point of round_up_double.
  double approx() const;

  /// The smallest double d with Rational::from_double(d) >= *this — i.e.
  /// the exact value rounded toward +infinity onto the double grid; +inf
  /// above the largest double. This is how a certified bound is reported:
  /// the emitted double never undercuts the exact supremum it certifies.
  double round_up_double() const;

  std::string to_string() const;

 private:
  /// Reduces by the common power of two and sets den_log2_.
  void normalize();
  /// x * den_, as a shift when den_ is a power of two.
  BigInt times_den(const BigInt& x) const;
  /// den_ * o.den_, as a shift when either is a power of two.
  BigInt den_product(const Rational& o) const;
  /// *this + o, or *this - o when `subtract`.
  Rational add(const Rational& o, bool subtract) const;

  BigInt num_;
  BigInt den_;         ///< always positive
  int den_log2_ = 0;   ///< log2(den_) if den_ is a power of two, else -1
};

}  // namespace streamcalc::util
