// The netcalc bridge of the stochastic tier: BoundReport semantics, the
// curve-level epsilon overloads, dominating_arrival, and the
// PipelineModel epsilon entry points. Pins the api_redesign contract:
// deterministic requests keep their exact pre-redesign values, stochastic
// requests degrade gracefully onto (never below breaking) the sure bound
// as epsilon -> 0.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "netcalc/node.hpp"
#include "minplus/curve.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/pipeline.hpp"
#include "netcalc/report.hpp"
#include "stochcalc/envelope.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace streamcalc::netcalc {
namespace {

using util::DataRate;
using util::DataSize;
using util::Duration;

minplus::Curve alpha() {
  return minplus::Curve::affine(2.0 * 1024 * 1024,
                                256.0 * 1024);  // 2 MiB/s, 256 KiB
}

minplus::Curve beta() {
  return minplus::Curve::rate_latency(8.0 * 1024 * 1024, 2e-3);
}

TEST(BoundReportApi, WorstCaseIsTheDefaultKind) {
  const DelayReport d = delay_bound(alpha(), beta());
  EXPECT_EQ(d.kind, BoundKind::kWorstCase);
  EXPECT_EQ(d.epsilon, 0.0);
  EXPECT_EQ(d.provenance.method, BoundMethod::kDeviation);
  EXPECT_STREQ(to_string(d.kind), "worst_case");
  EXPECT_STREQ(to_string(BoundKind::kViolationProb), "violation_prob");

  const BacklogReport x = backlog_bound(alpha(), beta());
  EXPECT_EQ(x.kind, BoundKind::kWorstCase);
  // Token bucket against rate-latency: the closed forms.
  EXPECT_NEAR(d.value.in_seconds(),
              2e-3 + 256.0 * 1024 / (8.0 * 1024 * 1024), 1e-9);
  EXPECT_NEAR(x.value.in_bytes(), 256.0 * 1024 + 2e-3 * 2.0 * 1024 * 1024,
              1.0);
}

TEST(BoundReportApi, EpsilonOverloadsReportViolationProbability) {
  const DelayReport d = delay_bound(alpha(), beta(), 1e-6);
  EXPECT_EQ(d.kind, BoundKind::kViolationProb);
  EXPECT_EQ(d.epsilon, 1e-6);
  ASSERT_TRUE(d.value.is_finite());
  // A deterministically-bounded arrival: the stochastic answer is clamped
  // by (and here equal to) the sure bound.
  EXPECT_EQ(d.provenance.method, BoundMethod::kDetClamp);
  const DelayReport sure = delay_bound(alpha(), beta());
  EXPECT_NEAR(d.value.in_seconds(), sure.value.in_seconds(), 1e-9);
  EXPECT_THROW(delay_bound(alpha(), beta(), 0.0), util::PreconditionError);
  EXPECT_THROW(delay_bound(alpha(), beta(), 1.0), util::PreconditionError);
}

TEST(BoundReportApi, ExplicitArrivalOverloadsOptimizeTheta) {
  const stochcalc::Arrival users =
      stochcalc::Arrival::on_off(DataRate::mib_per_sec(1),
                                 Duration::millis(200), Duration::millis(800),
                                 DataSize::kib(16))
          .aggregate(16.0);
  const DelayReport d = delay_bound(users, beta(), 1e-6);
  EXPECT_EQ(d.kind, BoundKind::kViolationProb);
  ASSERT_TRUE(d.value.is_finite());
  if (d.provenance.method == BoundMethod::kChernoff) {
    EXPECT_GT(d.provenance.theta, 0.0);
  }
  // Epsilon monotone through the bridge too.
  const DelayReport loose = delay_bound(users, beta(), 1e-2);
  EXPECT_LE(loose.value.in_seconds(), d.value.in_seconds() + 1e-12);
}

TEST(BoundReportApi, DominatingArrivalRecoversRateAndBurst) {
  const stochcalc::Arrival a = dominating_arrival(alpha());
  EXPECT_TRUE(a.deterministic());
  EXPECT_NEAR(a.mean_rate().in_bytes_per_sec(), 2.0 * 1024 * 1024, 1.0);
  double burst = 0.0;
  for (const stochcalc::Component& c : a.components()) {
    burst += c.count * c.burst;
  }
  EXPECT_NEAR(burst, 256.0 * 1024, 1.0);
}

TEST(PipelineModelEpsilon, DegradesGracefullyOntoTheSureBound) {
  std::vector<NodeSpec> nodes;
  nodes.push_back(NodeSpec::from_rates(
      "stage", NodeKind::kCompute, DataSize::kib(64),
      DataRate::mib_per_sec(24), DataRate::mib_per_sec(26),
      DataRate::mib_per_sec(30)));
  SourceSpec source;
  source.rate = DataRate::mib_per_sec(10);
  source.burst = DataSize::kib(256);
  source.packet = DataSize::kib(64);
  const PipelineModel model(nodes, source, ModelPolicy{});

  const DelayReport sure = model.delay_bound();
  ASSERT_TRUE(sure.value.is_finite());
  double prev = 0.0;
  for (const double eps : {1e-1, 1e-3, 1e-6, 1e-9, 1e-12}) {
    const DelayReport d = model.delay_bound(eps);
    EXPECT_EQ(d.kind, BoundKind::kViolationProb);
    ASSERT_TRUE(d.value.is_finite()) << "eps " << eps;
    // Tightening epsilon loosens the bound monotonically...
    EXPECT_GE(d.value.in_seconds(), prev - 1e-12) << "eps " << eps;
    // ...but never past the deterministic clamp.
    EXPECT_LE(d.value.in_seconds(), sure.value.in_seconds() + 1e-9)
        << "eps " << eps;
    prev = d.value.in_seconds();
  }
  const BacklogReport sx = model.backlog_bound(1e-6);
  EXPECT_EQ(sx.kind, BoundKind::kViolationProb);
  EXPECT_LE(sx.value.in_bytes(),
            model.backlog_bound().value.in_bytes() + 1.0);
}

}  // namespace
}  // namespace streamcalc::netcalc
