// Property suite for the one-lookup evaluation path of the exact certifier
// (certify/exact.*, DESIGN.md §9).
//
// ExactCurve::limits(t) must return exactly what value(t), value_right(t)
// and value_left(t) return, in value and in representation; the exact
// deviations built on it must match the per-limit formulation they
// replaced, which is kept below as the reference; and the conversion table
// shared by certify_pipeline's emitter and checker must yield the same
// report as the standalone checker, which converts on its own.
//
// Curves: minplus::testing::random_curve (jumps, and zero slopes when its
// slope range is empty), Curve::delta and finite curves that step to +inf,
// and pairs whose breakpoints coincide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "certify/checker.hpp"
#include "certify/exact.hpp"
#include "certify/postflight.hpp"
#include "minplus/curve.hpp"
#include "minplus/reference.hpp"
#include "netcalc/pipeline.hpp"
#include "testing/generator.hpp"
#include "testing/property.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace streamcalc::certify {
namespace {

using minplus::Curve;
using minplus::Segment;
using util::Rational;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Reference: the deviations as computed before ExactCurve::limits -------
//
// Each one-sided limit is looked up and evaluated on its own, and the
// horizontal deviation always inverts both f(t) and its right limit.

namespace ref {

const Rational& right_slope(const ExactCurve& f, const Rational& t) {
  const auto& s = f.segments();
  std::size_t i = 0;
  while (i + 1 < s.size() && s[i + 1].x <= t) ++i;
  return s[i].slope;
}

void fold_diff(const ExtRat& fv, const ExtRat& gv, PointDev& best) {
  if (gv.is_inf()) return;
  if (fv.is_inf()) {
    best.defined = true;
    best.infinite = true;
    return;
  }
  const Rational d = fv.finite() - gv.finite();
  if (!best.defined || (!best.infinite && best.value < d)) {
    best.defined = true;
    best.value = d;
  }
}

void fold_delay(const ExtRat& reach, const Rational& t, PointDev& best) {
  if (reach.is_inf()) {
    best.defined = true;
    best.infinite = true;
    return;
  }
  Rational d = reach.finite() - t;
  if (d.is_negative()) d = Rational(0);
  if (!best.defined || (!best.infinite && best.value < d)) {
    best.defined = true;
    best.value = d;
  }
}

std::vector<Rational> sorted_unique(std::vector<Rational> ts) {
  std::sort(ts.begin(), ts.end(),
            [](const Rational& a, const Rational& b) { return a < b; });
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [](const Rational& a, const Rational& b) {
                         return a == b;
                       }),
           ts.end());
  return ts;
}

ExactBound sup_over(const ExactCurve& f, const ExactCurve& g,
                    const std::vector<Rational>& ts,
                    PointDev (*dev_at)(const ExactCurve&, const ExactCurve&,
                                       const Rational&)) {
  ExactBound out;
  bool have = false;
  for (const Rational& t : ts) {
    const PointDev pd = dev_at(f, g, t);
    if (!pd.defined) continue;
    if (pd.infinite) {
      out.infinite = true;
      out.witness = t;
      return out;
    }
    if (!have || out.value < pd.value) {
      have = true;
      out.value = pd.value;
      out.witness = t;
    }
  }
  if (!have || out.value.is_negative()) out.value = Rational(0);
  return out;
}

PointDev vertical_dev_at(const ExactCurve& f, const ExactCurve& g,
                         const Rational& t) {
  PointDev best;
  fold_diff(f.value(t), g.value(t), best);
  if (best.infinite) return best;
  fold_diff(f.value_right(t), g.value_right(t), best);
  if (best.infinite) return best;
  if (!t.is_zero()) fold_diff(f.value_left(t), g.value_left(t), best);
  return best;
}

PointDev horizontal_dev_at(const ExactCurve& f, const ExactCurve& g,
                           const Rational& t) {
  PointDev best;
  fold_delay(g.lower_inverse(f.value(t)), t, best);
  if (best.infinite) return best;
  const ExtRat right = f.value_right(t);
  fold_delay(g.lower_inverse(right), t, best);
  if (best.infinite) return best;
  if (!right_slope(f, t).is_zero()) {
    fold_delay(g.upper_inverse(right), t, best);
  }
  return best;
}

bool diverges(const ExactCurve& f, const ExactCurve& g) {
  if (!f.finite_everywhere() && g.finite_everywhere()) return true;
  const ExtRat tf = f.tail_slope();
  const ExtRat tg = g.tail_slope();
  return !tf.is_inf() && !tg.is_inf() && tf > tg;
}

std::vector<Rational> breakpoints(const ExactCurve& f, const ExactCurve& g) {
  std::vector<Rational> ts;
  ts.push_back(Rational(0));
  for (const ExactSegment& s : f.segments()) ts.push_back(s.x);
  for (const ExactSegment& s : g.segments()) ts.push_back(s.x);
  return ts;
}

ExactBound vertical_deviation(const ExactCurve& f, const ExactCurve& g) {
  ExactBound out;
  if (diverges(f, g)) {
    out.infinite = true;
    return out;
  }
  std::vector<Rational> ts = breakpoints(f, g);
  ts.push_back(Rational::max(f.last_breakpoint(), g.last_breakpoint()) +
               Rational(1));
  return sup_over(f, g, sorted_unique(std::move(ts)), &vertical_dev_at);
}

ExactBound horizontal_deviation(const ExactCurve& f, const ExactCurve& g) {
  ExactBound out;
  if (diverges(f, g)) {
    out.infinite = true;
    return out;
  }
  std::vector<Rational> ts = breakpoints(f, g);
  for (const ExactSegment& s : g.segments()) {
    for (const ExtRat* level : {&s.value_at, &s.value_after}) {
      if (level->is_inf()) continue;
      const ExtRat t = f.lower_inverse(*level);
      if (!t.is_inf()) ts.push_back(t.finite());
    }
  }
  Rational probe = Rational::max(f.last_breakpoint(), g.last_breakpoint());
  for (const Rational& t : ts) probe = Rational::max(probe, t);
  ts.push_back(probe + Rational(1));
  return sup_over(f, g, sorted_unique(std::move(ts)), &horizontal_dev_at);
}

}  // namespace ref

// --- Curve sources ---------------------------------------------------------

/// `base` with its last segment replaced by a step to +inf at its start.
Curve step_to_inf(const Curve& base) {
  std::vector<Segment> segs = base.segments();
  Segment& last = segs.back();
  last.value_after = kInf;
  last.slope = 0.0;
  return Curve(std::move(segs));
}

/// A finite curve on `base`'s breakpoints with fresh values, so the pair
/// (base, result) has every breakpoint in common.
Curve on_same_breakpoints(const Curve& base, util::Xoshiro256& rng) {
  std::vector<Segment> segs;
  double y = 0.0;
  const auto& b = base.segments();
  for (std::size_t i = 0; i < b.size(); ++i) {
    Segment s{b[i].x, y, y, 0.0};
    if (rng.uniform01() < 0.4) s.value_after += rng.uniform(0.0, 3.0);
    if (rng.uniform01() < 0.7) s.slope = rng.uniform(0.0, 8.0);
    if (i + 1 < b.size()) y = s.value_after + s.slope * (b[i + 1].x - s.x);
    segs.push_back(s);
  }
  return Curve(std::move(segs));
}

/// One curve from the mix: general, staircase-like (zero slopes), delta,
/// step to +inf, or a named step.
Curve draw_curve(util::Xoshiro256& rng) {
  const int segments = 1 + static_cast<int>(rng.uniform(0.0, 6.0));
  const double kind = rng.uniform01();
  if (kind < 0.4) return minplus::testing::random_curve(rng, segments);
  if (kind < 0.6) return minplus::testing::random_curve(rng, segments, 0.0);
  if (kind < 0.7) return Curve::delta(rng.uniform(0.0, 4.0));
  if (kind < 0.85) {
    return step_to_inf(minplus::testing::random_curve(rng, segments + 1));
  }
  return Curve::step(rng.uniform(0.1, 5.0), rng.uniform(0.1, 4.0));
}

/// The pair of the i-th case: independent curves, or curves with
/// coincident breakpoints.
std::pair<Curve, Curve> draw_pair(util::Xoshiro256& rng) {
  Curve f = draw_curve(rng);
  if (rng.uniform01() < 0.3) {
    Curve g = on_same_breakpoints(f, rng);
    return {std::move(f), std::move(g)};
  }
  return {std::move(f), draw_curve(rng)};
}

/// Every breakpoint of both curves, 0, the midpoints of f's and g's
/// segments, and a probe past both tails.
std::vector<Rational> probe_times(const ExactCurve& f, const ExactCurve& g) {
  std::vector<Rational> ts = ref::breakpoints(f, g);
  for (const ExactCurve* c : {&f, &g}) {
    const auto& s = c->segments();
    for (std::size_t i = 0; i + 1 < s.size(); ++i) {
      ts.push_back((s[i].x + s[i + 1].x) / Rational(2));
    }
  }
  ts.push_back(Rational::max(f.last_breakpoint(), g.last_breakpoint()) +
               Rational(1));
  return ts;
}

/// Equal in value and in representation (to_string shows both).
void expect_same(const ExtRat& got, const ExtRat& want, const char* what,
                 const Rational& t) {
  EXPECT_TRUE(got == want && got.to_string() == want.to_string())
      << what << " at t = " << t.to_string() << ": " << got.to_string()
      << " vs " << want.to_string();
}

void expect_same_point(const PointDev& got, const PointDev& want,
                       const char* what, const Rational& t) {
  EXPECT_EQ(got.defined, want.defined) << what << " at " << t.to_string();
  EXPECT_EQ(got.infinite, want.infinite) << what << " at " << t.to_string();
  EXPECT_EQ(got.value.to_string(), want.value.to_string())
      << what << " at " << t.to_string();
}

void expect_same_bound(const ExactBound& got, const ExactBound& want,
                       const char* what) {
  EXPECT_EQ(got.infinite, want.infinite) << what;
  EXPECT_EQ(got.value.to_string(), want.value.to_string()) << what;
  EXPECT_EQ(got.witness.to_string(), want.witness.to_string()) << what;
}

TEST(ExactLimitsProperty, LimitsMatchTheThreeEvaluations) {
  util::Xoshiro256 rng(0x11a1);
  const int n = testing::scaled_cases(300);
  for (int i = 0; i < n; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto [fc, gc] = draw_pair(rng);
    const ExactCurve f = ExactCurve::from(fc);
    const ExactCurve g = ExactCurve::from(gc);
    for (const Rational& t : probe_times(f, g)) {
      for (const ExactCurve* c : {&f, &g}) {
        const ExactCurve::Limits l = c->limits(t);
        expect_same(l.value, c->value(t), "value", t);
        expect_same(l.right, c->value_right(t), "right limit", t);
        expect_same(l.left, c->value_left(t), "left limit", t);
        EXPECT_EQ(c->segments()[l.segment].slope.to_string(),
                  ref::right_slope(*c, t).to_string())
            << "segment at t = " << t.to_string();
      }
    }
  }
}

TEST(ExactLimitsProperty, DeviationsMatchThePerLimitReference) {
  util::Xoshiro256 rng(0x11a2);
  const int n = testing::scaled_cases(300);
  for (int i = 0; i < n; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto [fc, gc] = draw_pair(rng);
    const ExactCurve f = ExactCurve::from(fc);
    const ExactCurve g = ExactCurve::from(gc);
    for (const Rational& t : probe_times(f, g)) {
      expect_same_point(exact_vertical_dev_at(f, g, t),
                        ref::vertical_dev_at(f, g, t), "vertical", t);
      expect_same_point(exact_horizontal_dev_at(f, g, t),
                        ref::horizontal_dev_at(f, g, t), "horizontal", t);
    }
    expect_same_bound(exact_vertical_deviation(f, g),
                      ref::vertical_deviation(f, g), "vertical deviation");
    expect_same_bound(exact_horizontal_deviation(f, g),
                      ref::horizontal_deviation(f, g),
                      "horizontal deviation");
  }
}

TEST(ExactLimitsProperty, SharedTableReportsMatchTheStandaloneChecker) {
  // certify_pipeline converts each curve once for emitter and checker;
  // the standalone checker converts from the certificates alone. Both
  // must report the same findings, also for a certificate whose curve was
  // mutated after the table already held the original.
  testing::ScenarioGenConfig gen;
  gen.max_stages = 5;
  testing::ScenarioGenerator scenarios(gen, 0x11a3);
  const int n = testing::scaled_cases(30);
  for (int i = 0; i < n; ++i) {
    const testing::Scenario s = scenarios.next();
    SCOPED_TRACE("scenario " + std::to_string(i) + ": " + s.describe());
    const netcalc::PipelineModel model(s.nodes, s.source);
    std::vector<BoundCertificate> certs = emit_pipeline_certificates(model);
    EXPECT_EQ(certify_pipeline(model).render("x"),
              check_certificates(certs).render("x"));

    ExactCurveTable table;
    EXPECT_TRUE(check_certificates(certs, table).clean());
    // A larger burst: the first certificate's claim no longer dominates.
    std::vector<Segment> segs = certs.front().arrival.segments();
    for (std::size_t k = 0; k < segs.size(); ++k) {
      if (k > 0) segs[k].value_at += 4096.0;
      segs[k].value_after += 4096.0;
    }
    certs.front().arrival = Curve(std::move(segs));
    const auto shared = check_certificates(certs, table);
    EXPECT_FALSE(shared.clean());
    EXPECT_EQ(shared.render("x"), check_certificates(certs).render("x"));
  }
}

}  // namespace
}  // namespace streamcalc::certify
