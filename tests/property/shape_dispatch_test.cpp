// Shape-dispatch equivalence suite (DESIGN.md §11).
//
// The convolve/deconvolve entry points classify their operands and route
// to specialized kernels (delay shift, convex slope merge, concave
// minimum, affine clip; the divergent deconvolution guard). Every one of
// those shortcuts must be *pointwise indistinguishable* from the general
// branch-envelope kernel it replaces — the shortcut is an optimization,
// never a semantic fork. This suite fuzzes random operand pairs (including
// the generator's pathological variants: micro-segments, near-equal
// slopes, huge offsets) and, whenever the classifier picks a shortcut,
// compares the dispatched result against detail::convolve_general with the
// tolerant comparator. Deterministic per-kernel cases then pin coverage:
// each kernel is exercised by construction, so a classifier regression
// cannot silently retire a shortcut from the fuzz population.
//
// Staircases, the zero curve and delta_T as a deconvolution divisor have
// no kernel of their own (no real program reached one); their cases below
// check the values the remaining dispatch computes for them.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "certify/exact.hpp"
#include "minplus/curve.hpp"
#include "minplus/operations.hpp"
#include "testing/compare.hpp"
#include "testing/exact_minplus.hpp"
#include "testing/generator.hpp"
#include "testing/property.hpp"
#include "util/rational.hpp"

namespace streamcalc::minplus {
namespace {

using testing::CurveGenConfig;
using testing::CurveKind;
using testing::first_gap;
using testing::FuzzSpec;
using testing::gap_str;

/// "" if the dispatched convolution matches the general kernel on (f, g);
/// a diagnostic naming the kernel otherwise. Pairs the classifier already
/// routes to the general kernel are vacuously consistent.
std::string convolve_matches_general(const Curve& f, const Curve& g) {
  const detail::ConvKernel kernel = detail::classify_convolve(f, g);
  if (kernel == detail::ConvKernel::kGeneral) return "";
  const Curve fast = convolve(f, g);
  const Curve reference = detail::convolve_general(f, g);
  if (const auto gap = first_gap(fast, reference, 1e-7, 1e-9)) {
    return std::string("kernel '") + detail::kernel_name(kernel) +
           "' diverges from the general kernel: " + gap_str(*gap);
  }
  return "";
}

/// "" if convolve(f, g) agrees with the exact reference at every probe
/// time of the result against either operand.
std::string convolve_matches_pointwise(const Curve& f, const Curve& g) {
  const Curve out = convolve(f, g);
  const certify::ExactCurve ef = certify::ExactCurve::from(f);
  const certify::ExactCurve eg = certify::ExactCurve::from(g);
  for (const Curve* op : {&f, &g}) {
    for (const double t : testing::probe_times(out, *op)) {
      const double want =
          testing::exact_convolve_at(ef, eg, util::Rational::from_double(t))
              .value.approx();
      const double got = out.value(t);
      if (got == want ||
          std::fabs(got - want) <= 1e-9 * (1.0 + std::fabs(want))) {
        continue;
      }
      std::ostringstream os;
      os << "convolve(f, g)(" << t << ") = " << got
         << " but the exact reference gives " << want;
      return os.str();
    }
  }
  return "";
}

TEST(ShapeDispatch, FuzzConvolveShortcutsEqualGeneralKernel) {
  FuzzSpec spec;
  spec.operands = {CurveKind::kAny, CurveKind::kAny};
  spec.gen.pathological_bias = 0.5;
  spec.seed = 0x5a9e0001ULL;
  const auto failure = testing::fuzz(
      spec, [](const std::vector<Curve>& ops) {
        return convolve_matches_general(ops[0], ops[1]);
      });
  ASSERT_FALSE(failure.has_value()) << failure->report();
}

TEST(ShapeDispatch, FuzzConvexPairsEqualGeneralKernel) {
  // Service-shaped operands bias the population toward the convex kernel.
  FuzzSpec spec;
  spec.operands = {CurveKind::kService, CurveKind::kService};
  spec.gen.pathological_bias = 0.5;
  spec.seed = 0x5a9e0002ULL;
  const auto failure = testing::fuzz(
      spec, [](const std::vector<Curve>& ops) {
        return convolve_matches_general(ops[0], ops[1]);
      });
  ASSERT_FALSE(failure.has_value()) << failure->report();
}

TEST(ShapeDispatch, FuzzConcavePairsEqualGeneralKernel) {
  FuzzSpec spec;
  spec.operands = {CurveKind::kArrival, CurveKind::kArrival};
  spec.gen.pathological_bias = 0.5;
  spec.seed = 0x5a9e0003ULL;
  const auto failure = testing::fuzz(
      spec, [](const std::vector<Curve>& ops) {
        return convolve_matches_general(ops[0], ops[1]);
      });
  ASSERT_FALSE(failure.has_value()) << failure->report();
}

// --- Deterministic per-kernel coverage -----------------------------------
// Each case asserts the classifier picks the intended kernel AND the
// shortcut matches the general kernel on that pair, so the fuzz passes
// above cannot go vacuous if the classifier regresses.

void expect_kernel_and_equivalence(const Curve& f, const Curve& g,
                                   detail::ConvKernel expected) {
  ASSERT_EQ(detail::classify_convolve(f, g), expected)
      << "classifier no longer routes this pair to '"
      << detail::kernel_name(expected) << "'";
  const std::string msg = convolve_matches_general(f, g);
  EXPECT_TRUE(msg.empty()) << msg;
}

TEST(ShapeDispatch, ConvexKernelCovered) {
  const Curve f = maximum(Curve::rate_latency(3.0, 1.0),
                          Curve::rate_latency(7.0, 2.5));
  const Curve g = Curve::rate_latency(5.0, 0.5);
  expect_kernel_and_equivalence(f, g, detail::ConvKernel::kConvex);
}

TEST(ShapeDispatch, ConcaveKernelCovered) {
  const Curve f = minimum(Curve::affine(2.0, 9.0), Curve::affine(6.0, 1.0));
  const Curve g = Curve::affine(3.0, 4.0);
  expect_kernel_and_equivalence(f, g, detail::ConvKernel::kConcave);
}

TEST(ShapeDispatch, AffineConvexKernelCovered) {
  const Curve f = Curve::affine(12.0, 40.0);
  const Curve g = maximum(Curve::rate_latency(4.0, 1.0),
                          Curve::rate_latency(9.0, 3.0));
  expect_kernel_and_equivalence(f, g, detail::ConvKernel::kAffineConvex);
}

TEST(ShapeDispatch, StaircaseKernelCovered) {
  const Curve f = Curve::staircase(64.0, 1.0, 0.5, 8);
  const Curve g = Curve::rate_latency(80.0, 2.0);
  const std::string msg = convolve_matches_pointwise(f, g);
  EXPECT_TRUE(msg.empty()) << msg;
}

TEST(ShapeDispatch, StaircasePairCovered) {
  const Curve f = Curve::staircase(64.0, 1.0, 0.5, 8);
  const Curve g = Curve::staircase(16.0, 0.25, 0.0, 12);
  const std::string msg = convolve_matches_pointwise(f, g);
  EXPECT_TRUE(msg.empty()) << msg;
}

TEST(ShapeDispatch, NonUniformStaircaseCovered) {
  // Unequal risers and runs.
  const Curve f({Segment{0.0, 0.0, 0.0, 0.0}, Segment{1.0, 3.0, 3.0, 0.0},
                 Segment{1.5, 10.0, 10.0, 0.0}, Segment{4.0, 11.0, 11.0, 0.0},
                 Segment{5.0, 20.0, 20.0, 4.0}});
  const Curve g = Curve::rate_latency(6.0, 0.75);
  const std::string msg = convolve_matches_pointwise(f, g);
  EXPECT_TRUE(msg.empty()) << msg;
}

TEST(ShapeDispatch, DelayKernelCovered) {
  const Curve f = Curve::delta(1.5);
  const Curve g = Curve::rate_latency(5.0, 0.5);
  expect_kernel_and_equivalence(f, g, detail::ConvKernel::kDelay);
}

TEST(ShapeDispatch, ZeroKernelCovered) {
  // Convolving with the zero curve takes the whole budget at s = t:
  // (0 (x) g)(t) = g(0) for every t.
  const Curve affine = Curve::affine(3.0, 2.0);
  const Curve lifted({Segment{0.0, 2.0, 2.0, 1.0}});
  for (const Curve* g : {&affine, &lifted}) {
    const double c = g->value(0.0);
    const Curve expected({Segment{0.0, c, c, 0.0}});
    for (const Curve& out :
         {convolve(Curve::zero(), *g), convolve(*g, Curve::zero())}) {
      const auto gap = first_gap(out, expected);
      EXPECT_FALSE(gap.has_value())
          << "g=" << g->describe() << ": " << gap_str(*gap);
    }
  }
}

TEST(ShapeDispatch, DeconvolveDelayKernelCovered) {
  // delta_T contributes 0 on [0, T] and -inf after: the supremum sits at
  // s = T, so (f (/) delta_T)(t) = f(t + T).
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve g = Curve::delta(1.5);
  const auto gap = first_gap(deconvolve(f, g), f.shift_left(1.5));
  EXPECT_FALSE(gap.has_value()) << gap_str(*gap);
}

TEST(ShapeDispatch, DeconvolveDivergentContract) {
  // Arrival rate above the service rate: the supremum diverges for every
  // t, and the dispatcher must return the all-infinite curve rather than
  // entering the branch envelope.
  const Curve f = Curve::affine(9.0, 1.0);
  const Curve g = Curve::rate(2.0);
  ASSERT_EQ(detail::classify_deconvolve(f, g),
            detail::DeconvKernel::kDivergent);
  const Curve d = deconvolve(f, g);
  EXPECT_EQ(d.value(0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(d.value(10.0), std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace streamcalc::minplus
