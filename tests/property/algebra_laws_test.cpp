// Algebraic laws of the (min, +) and (max, +) dioids, checked by seeded
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

#include "maxplus/operations.hpp"
#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "testing/compare.hpp"
#include "testing/property.hpp"
#include "util/format.hpp"

namespace streamcalc::testing {
namespace {

using minplus::Curve;

constexpr double kRtol = 1e-7;
constexpr double kAtol = 1e-9;

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

/// True when the truncated Kleene iteration reached its fixpoint: if one
/// more term changes nothing, isotonicity of (x) keeps every later power
/// above the closure, so the truncated result is the exact closure. The
/// closure laws only hold at the fixpoint — a step curve whose powers keep
/// marching right never converges in finitely many terms, and its
/// truncation is not subadditive.
bool closure_converged(const Curve& f) {
  return !first_gap(subadditive_closure(f), subadditive_closure(f, 17),
                    1e-12, 1e-12)
              .has_value();
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

TEST(MinPlusLaws, ClosureIsIdempotentAndDominated) {
  FuzzSpec s = spec({CurveKind::kAny}, 0xa00a);
  s.gen.max_segments = 4;  // closure self-convolves; keep operands small
  s.cases = scaled_cases(150);  // ~4 Kleene closures per case
  expect_holds(s, [](const std::vector<Curve>& c) {
    const Curve star = subadditive_closure(c[0]);
    std::string err = check_leq(star, c[0], "f* > f");
    if (!err.empty()) return err;
    // Idempotence holds only at the Kleene fixpoint; a truncated,
    // non-converged closure is a sound upper approximation but not
    // idempotent.
    if (!closure_converged(c[0])) return std::string();
    return check_equal(subadditive_closure(star), star, "(f*)* != f*");
  });
}

TEST(MinPlusLaws, ClosureIsSubadditive) {
  FuzzSpec s = spec({CurveKind::kAny}, 0xa00b);
  s.gen.max_segments = 4;
  s.cases = scaled_cases(150);  // ~3 Kleene closures per case
  expect_holds(s, [](const std::vector<Curve>& c) {
    // Subadditivity holds only at the Kleene fixpoint (see
    // closure_converged).
    if (!closure_converged(c[0])) return std::string();
    const Curve star = subadditive_closure(c[0]);
    // f*(t + u) <= f*(t) + f*(u) at a deterministic grid of probe pairs.
    const std::vector<double> pts = probe_times(star, star);
    const std::size_t n = std::min<std::size_t>(pts.size(), 10);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double lhs = star.value(pts[i] + pts[j]);
        const double rhs = star.value(pts[i]) + star.value(pts[j]);
        if (lhs > rhs + kAtol + kRtol * (1.0 + std::abs(rhs))) {
          return "closure not subadditive at t=" +
                 util::format_significant(pts[i], 17) + ", u=" +
                 util::format_significant(pts[j], 17) + ": f*(t+u)=" +
                 util::format_significant(lhs, 17) + " > f*(t)+f*(u)=" +
                 util::format_significant(rhs, 17);
        }
      }
    }
    return std::string();
  });
}

TEST(MaxPlusLaws, ConvolveCommutesAndAssociates) {
  expect_holds(
      spec({CurveKind::kFinite, CurveKind::kFinite, CurveKind::kFinite},
           0xa00c),
      [](const std::vector<Curve>& c) {
        std::string err = check_equal(maxplus::convolve(c[0], c[1]),
                                      maxplus::convolve(c[1], c[0]),
                                      "max-plus f(x)g != g(x)f");
        if (!err.empty()) return err;
        return check_equal(
            maxplus::convolve(maxplus::convolve(c[0], c[1]), c[2]),
            maxplus::convolve(c[0], maxplus::convolve(c[1], c[2])),
            "max-plus convolution not associative");
      });
}

TEST(MaxPlusLaws, ConvolveIsIsotone) {
  expect_holds(
      spec({CurveKind::kFinite, CurveKind::kFinite, CurveKind::kFinite},
           0xa00d),
      [](const std::vector<Curve>& c) {
        // f <= max(f, f'), so the images must stay ordered.
        return check_leq(maxplus::convolve(c[0], c[2]),
                         maxplus::convolve(maximum(c[0], c[1]), c[2]),
                         "max-plus convolution not isotone");
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
