// Algebraic laws of the (min, +) dioid, checked by seeded
// fuzzing over random piecewise-linear curves (including pathological
// near-degenerate shapes). Each law is a PropertyFn returning "" when it
// holds; a falsified law is shrunk and reported with its replay seed.
//
// Laws of different computation orders (associativity, distributivity) are
// compared with the tolerant probe comparison in testing/compare.hpp:
// the breakpoints of conv(conv(f,g),h) and conv(f,conv(g,h)) carry
// different rounding noise, so exact segment equality is the wrong notion
// (the bit patterns are pinned in minplus/envelope_pin_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "testing/compare.hpp"
#include "testing/property.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace streamcalc::testing {
namespace {

using minplus::Curve;

constexpr double kRtol = 1e-7;
constexpr double kAtol = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Curve's canonicalization tolerance (nearly_equal in curve.cpp).
constexpr double kSumRtol = 1e-9;

std::string check_equal(const Curve& a, const Curve& b, const char* law) {
  if (const auto gap = first_gap(a, b, kRtol, kAtol)) {
    return std::string(law) + ": " + gap_str(*gap);
  }
  return "";
}

std::string check_leq(const Curve& a, const Curve& b, const char* law) {
  if (const auto gap = first_above(a, b, kRtol, kAtol)) {
    return std::string(law) + ": " + gap_str(*gap);
  }
  return "";
}

/// Largest finite value either curve takes over the probed range. The
/// Galois-connection identities route every value through f(s) + g(u) and
/// back; any double implementation of that round trip carries an absolute
/// error floor of O(eps * magnitude), so comparisons after the round trip
/// must widen their absolute tolerance accordingly (a burst of 5e8 makes
/// half an ulp already 6e-8, far above kAtol).
double conditioning_atol(const Curve& a, const Curve& b) {
  double m = 0.0;
  for (const Curve* c : {&a, &b}) {
    for (const minplus::Segment& s : c->segments()) {
      for (double v : {s.value_at, s.value_after}) {
        if (std::isfinite(v)) m = std::max(m, std::fabs(v));
      }
    }
    const double last = c->last_breakpoint();
    const double tail = c->value(last + 2.0 * (1.0 + std::fabs(last)));
    if (std::isfinite(tail)) m = std::max(m, std::fabs(tail));
  }
  return kAtol + 64.0 * std::numeric_limits<double>::epsilon() * m;
}

void expect_holds(FuzzSpec spec, const PropertyFn& property) {
  const auto failure = fuzz(spec, property);
  EXPECT_FALSE(failure.has_value()) << failure->report();
}

FuzzSpec spec(std::initializer_list<CurveKind> kinds,
              std::uint64_t seed) {
  FuzzSpec s;
  s.operands = kinds;
  s.seed = seed;
  return s;
}

TEST(MinPlusLaws, ConvolveCommutes) {
  expect_holds(spec({CurveKind::kAny, CurveKind::kAny}, 0xa001),
               [](const std::vector<Curve>& c) {
                 return check_equal(convolve(c[0], c[1]),
                                    convolve(c[1], c[0]),
                                    "f(x)g != g(x)f");
               });
}

TEST(MinPlusLaws, ConvolveAssociates) {
  expect_holds(
      spec({CurveKind::kAny, CurveKind::kAny, CurveKind::kAny}, 0xa002),
      [](const std::vector<Curve>& c) {
        return check_equal(convolve(convolve(c[0], c[1]), c[2]),
                           convolve(c[0], convolve(c[1], c[2])),
                           "(f(x)g)(x)h != f(x)(g(x)h)");
      });
}

TEST(MinPlusLaws, ConvolveHasDeltaZeroIdentity) {
  expect_holds(spec({CurveKind::kAny}, 0xa003),
               [](const std::vector<Curve>& c) {
                 return check_equal(convolve(c[0], Curve::delta(0.0)), c[0],
                                    "f(x)delta_0 != f");
               });
}

TEST(MinPlusLaws, MinimumCommutesAndAssociates) {
  expect_holds(
      spec({CurveKind::kAny, CurveKind::kAny, CurveKind::kAny}, 0xa004),
      [](const std::vector<Curve>& c) {
        std::string err = check_equal(minimum(c[0], c[1]),
                                      minimum(c[1], c[0]),
                                      "min(f,g) != min(g,f)");
        if (!err.empty()) return err;
        return check_equal(minimum(minimum(c[0], c[1]), c[2]),
                           minimum(c[0], minimum(c[1], c[2])),
                           "min not associative");
      });
}

TEST(MinPlusLaws, ConvolveDistributesOverMinimum) {
  expect_holds(
      spec({CurveKind::kAny, CurveKind::kAny, CurveKind::kAny}, 0xa005),
      [](const std::vector<Curve>& c) {
        return check_equal(
            convolve(c[0], minimum(c[1], c[2])),
            minimum(convolve(c[0], c[1]), convolve(c[0], c[2])),
            "f(x)min(g,h) != min(f(x)g, f(x)h)");
      });
}

TEST(MinPlusLaws, DeconvolveOfConvolveIsDominated) {
  // Galois connection, upper half: (f (x) g) (/) g <= f.
  expect_holds(spec({CurveKind::kFinite, CurveKind::kAny}, 0xa006),
               [](const std::vector<Curve>& c) {
                 const Curve lhs = deconvolve(convolve(c[0], c[1]), c[1]);
                 if (const auto gap = first_above(
                         lhs, c[0], kRtol, conditioning_atol(c[0], c[1]))) {
                   return "(f(x)g)(/)g > f: " + gap_str(*gap);
                 }
                 return std::string();
               });
}

TEST(MinPlusLaws, DeconvolveDualityRecovers) {
  // Galois connection, lower half: f <= (f (/) g) (x) g whenever the
  // deconvolution is finite.
  expect_holds(spec({CurveKind::kFinite, CurveKind::kAny}, 0xa007),
               [](const std::vector<Curve>& c) {
                 const Curve q = deconvolve(c[0], c[1]);
                 if (!q.is_finite()) return std::string();
                 if (const auto gap =
                         first_above(c[0], convolve(q, c[1]), kRtol,
                                     conditioning_atol(c[0], c[1]))) {
                   return "f > (f(/)g)(x)g: " + gap_str(*gap);
                 }
                 return std::string();
               });
}

TEST(MinPlusLaws, ConvolveIsIsotone) {
  expect_holds(
      spec({CurveKind::kAny, CurveKind::kAny, CurveKind::kAny}, 0xa008),
      [](const std::vector<Curve>& c) {
        // min(f, f') <= f, so the images under (x) g must stay ordered.
        return check_leq(convolve(minimum(c[0], c[1]), c[2]),
                         convolve(c[0], c[2]),
                         "convolution not isotone");
      });
}

TEST(MinPlusLaws, DeconvolveIsIsotoneInNumerator) {
  expect_holds(
      spec({CurveKind::kFinite, CurveKind::kFinite, CurveKind::kAny},
           0xa009),
      [](const std::vector<Curve>& c) {
        return check_leq(deconvolve(minimum(c[0], c[1]), c[2]),
                         deconvolve(c[0], c[2]),
                         "deconvolution not isotone in f");
      });
}

/// f(t) + g(t) for values that may be +inf.
double sum_inf(double a, double b) {
  return a == kInf || b == kInf ? kInf : a + b;
}

/// Operand breakpoints at or before t that the sum `s` no longer has: the
/// ones Curve's constructor merged into the piece before them.
double merged_before(const Curve& f, const Curve& g, const Curve& s,
                     double t) {
  double merged = 0.0;
  for (const Curve* c : {&f, &g}) {
    for (const minplus::Segment& p : c->segments()) {
      if (p.x > t) break;
      const bool kept = std::any_of(
          s.segments().begin(), s.segments().end(),
          [&](const minplus::Segment& q) { return q.x == p.x; });
      if (!kept) merged += 1.0;
    }
  }
  return merged;
}

/// "" if add(f, g) takes f(t) + g(t), as value and as right limit, at
/// every probe of probe_times (both operands' breakpoints, the midpoints
/// between them and two points past the last). The sum's own rounding sits
/// far inside one step of Curve's canonicalization tolerance (1e-9
/// relative). Each breakpoint the constructor merges away may move the
/// value by that step twice (onto the left limit, and across its jump),
/// so a probe after k merged breakpoints is held to 1 + 2k steps.
std::string check_sum(const Curve& f, const Curve& g) {
  const Curve s = add(f, g);
  for (const double t : probe_times(f, g)) {
    for (const bool right : {false, true}) {
      const double want = right ? sum_inf(f.value_right(t), g.value_right(t))
                                : sum_inf(f.value(t), g.value(t));
      const double got = right ? s.value_right(t) : s.value(t);
      if (got == want) continue;
      const double scale = 1.0 + std::max(std::fabs(got), std::fabs(want));
      const double steps = 1.0 + 2.0 * merged_before(f, g, s, t);
      if (got != kInf && want != kInf &&
          std::fabs(got - want) <= steps * kSumRtol * scale) {
        continue;
      }
      return "(f+g)(" + util::format_significant(t, 17) +
             (right ? "+) = " : ") = ") + util::format_significant(got, 17) +
             " but f + g = " + util::format_significant(want, 17);
    }
  }
  return "";
}

TEST(MinPlusLaws, AddCommutesBitForBit) {
  expect_holds(spec({CurveKind::kAny, CurveKind::kAny}, 0xa010),
               [](const std::vector<Curve>& c) {
                 const std::string diff =
                     bit_diff(add(c[0], c[1]), add(c[1], c[0]));
                 return diff.empty() ? diff : "f+g != g+f: " + diff;
               });
}

TEST(MinPlusLaws, AddOfZeroIsIdentity) {
  expect_holds(spec({CurveKind::kAny}, 0xa013),
               [](const std::vector<Curve>& c) {
                 std::string diff = bit_diff(add(c[0], Curve::zero()), c[0]);
                 if (diff.empty()) {
                   diff = bit_diff(add(Curve::zero(), c[0]), c[0]);
                 }
                 return diff.empty() ? diff : "f+0 != f: " + diff;
               });
}

TEST(MinPlusLaws, AddMatchesThePointwiseSum) {
  expect_holds(spec({CurveKind::kAny, CurveKind::kAny}, 0xa011),
               [](const std::vector<Curve>& c) {
                 return check_sum(c[0], c[1]);
               });
}

TEST(MinPlusLaws, AddOfABurstDelayCurveIsInfiniteAfterItsLatency) {
  // delta_T + f is f on [0, T] and +inf after T, for T at the origin, at
  // one of f's breakpoints and between two of them.
  expect_holds(spec({CurveKind::kAny}, 0xa012),
               [](const std::vector<Curve>& c) {
                 const std::vector<minplus::Segment>& segs = c[0].segments();
                 const double mid =
                     segs.size() > 1 ? 0.5 * segs[1].x : 1.0;
                 for (const double T : {0.0, segs.back().x, mid}) {
                   const Curve d = Curve::delta(T);
                   std::string err = check_sum(d, c[0]);
                   if (err.empty()) err = check_sum(c[0], d);
                   if (!err.empty()) {
                     return "T = " + util::format_significant(T, 17) +
                            ": " + err;
                   }
                 }
                 return std::string();
               });
}

/// "" if subtract_clamped(f, g) takes max(0, f(t) - g(t)), as value and as
/// right limit, at every probe of probe_times, or rejects the pair (its
/// [f - g]^+ falls). Above the positive part it is held to the steps of
/// check_sum at operand scale. Below, it may also lose the rise over two
/// ulps of abscissa at f's steepest slope: the residual's zero crossing is
/// rounded up, so that its sloped part never starts above f - g.
std::string check_residual(const Curve& f, const Curve& g) {
  Curve r;
  try {
    r = minplus::subtract_clamped(f, g);
  } catch (const util::PreconditionError&) {
    return "";
  }
  double steepest = 0.0;
  for (const minplus::Segment& s : f.segments()) {
    steepest = std::max(steepest, s.slope);
  }
  for (const double t : probe_times(f, g)) {
    for (const bool right : {false, true}) {
      const double fv = right ? f.value_right(t) : f.value(t);
      const double gv = right ? g.value_right(t) : g.value(t);
      const double want =
          fv == kInf ? kInf : gv == kInf ? 0.0 : std::max(0.0, fv - gv);
      const double got = right ? r.value_right(t) : r.value(t);
      if (got == want) continue;
      const double scale = 1.0 + std::max(std::fabs(fv),
                                          gv == kInf ? 0.0 : std::fabs(gv));
      const double steps =
          (1.0 + 2.0 * merged_before(f, g, r, t)) * kSumRtol * scale;
      const double ulp = std::nextafter(t, kInf) - t;
      if (got != kInf && want != kInf &&
          (got > want ? got - want <= steps
                      : want - got <= steps + 2.0 * steepest * ulp)) {
        continue;
      }
      return "[f-g]+(" + util::format_significant(t, 17) +
             (right ? "+) = " : ") = ") + util::format_significant(got, 17) +
             " but max(0, f - g) = " + util::format_significant(want, 17);
    }
  }
  return "";
}

TEST(MinPlusLaws, SubtractClampedOfZeroIsIdentity) {
  expect_holds(spec({CurveKind::kAny}, 0xa014),
               [](const std::vector<Curve>& c) {
                 const std::string diff =
                     bit_diff(subtract_clamped(c[0], Curve::zero()), c[0]);
                 return diff.empty() ? diff : "[f-0]+ != f: " + diff;
               });
}

TEST(MinPlusLaws, SubtractClampedMatchesThePositivePart) {
  expect_holds(spec({CurveKind::kAny, CurveKind::kAny}, 0xa015),
               [](const std::vector<Curve>& c) {
                 return check_residual(c[0], c[1]);
               });
}

TEST(MinPlusLaws, SubtractClampedOfABurstDelayCurveIsThatCurve) {
  // [delta_T - g]^+ is 0 up to T and +inf after it, whatever g is: past T
  // the residual is +inf and cannot fall, even where g has a breakpoint.
  EXPECT_EQ(subtract_clamped(Curve::delta(0.287), Curve::step(1.12e9, 1.31)),
            Curve::delta(0.287));
  expect_holds(spec({CurveKind::kAny}, 0xa016),
               [](const std::vector<Curve>& c) {
                 for (const double T : {0.287, 1.0, 2.5}) {
                   const std::string diff = bit_diff(
                       subtract_clamped(Curve::delta(T), c[0]),
                       Curve::delta(T));
                   if (!diff.empty()) {
                     return "[delta_" + util::format_significant(T, 17) +
                            " - g]+ != delta: " + diff;
                   }
                 }
                 return std::string();
               });
}

TEST(DeviationLaws, DeviationsAreAntitoneInService) {
  // A better service curve (pointwise larger) can only improve both bounds.
  expect_holds(
      spec({CurveKind::kArrival, CurveKind::kService, CurveKind::kService},
           0xa00e),
      [](const std::vector<Curve>& c) {
        const Curve better = maximum(c[1], c[2]);
        const double v_base = vertical_deviation(c[0], c[1]);
        const double v_better = vertical_deviation(c[0], better);
        if (v_better > v_base + kAtol + kRtol * (1.0 + v_base)) {
          return "vertical deviation grew under a better service curve: " +
                 util::format_significant(v_better, 17) + " > " +
                 util::format_significant(v_base, 17);
        }
        const double h_base = horizontal_deviation(c[0], c[1]);
        const double h_better = horizontal_deviation(c[0], better);
        if (h_better > h_base + kAtol + kRtol * (1.0 + h_base)) {
          return "horizontal deviation grew under a better service curve: " +
                 util::format_significant(h_better, 17) + " > " +
                 util::format_significant(h_base, 17);
        }
        return std::string();
      });
}

TEST(DeviationLaws, OutputBoundDominatesGuaranteedOutput) {
  // alpha* = alpha (/) beta bounds the output of any server guaranteeing
  // beta; the guaranteed output alpha (x) beta is one feasible output, so
  // the deconvolution must dominate it wherever both are finite.
  expect_holds(
      spec({CurveKind::kArrival, CurveKind::kService}, 0xa00f),
      [](const std::vector<Curve>& c) {
        const Curve out_bound = deconvolve(c[0], c[1]);
        if (!out_bound.is_finite()) return std::string();
        return check_leq(convolve(c[0], c[1]), out_bound,
                         "alpha(x)beta > alpha(/)beta");
      });
}

}  // namespace
}  // namespace streamcalc::testing
