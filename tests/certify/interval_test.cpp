// Unit tests for interval stability certification: whole-box proofs,
// violating-face reporting, whole-box instability, degenerate-box
// agreement with nclint's per-point NC101 verdict, and box validation.
#include "certify/interval.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "apps/blast.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/node.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace streamcalc::certify {
namespace {

using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::SourceSpec;

std::vector<NodeSpec> two_stage() {
  // Two compute stages at 200 and 150 MiB/s sustained.
  return {
      NodeSpec::from_rates("a", NodeKind::kCompute,
                           util::DataSize::kib(64),
                           util::DataRate::mib_per_sec(180),
                           util::DataRate::mib_per_sec(200),
                           util::DataRate::mib_per_sec(220)),
      NodeSpec::from_rates("b", NodeKind::kCompute,
                           util::DataSize::kib(64),
                           util::DataRate::mib_per_sec(140),
                           util::DataRate::mib_per_sec(150),
                           util::DataRate::mib_per_sec(165)),
  };
}

SourceSpec source_at(double mib_per_sec) {
  SourceSpec s;
  s.rate = util::DataRate::mib_per_sec(mib_per_sec);
  s.burst = util::DataSize::kib(256);
  s.packet = util::DataSize::kib(64);
  return s;
}

ParamBox rate_box(double lo_mib, double hi_mib, std::size_t node_count) {
  ParamBox box = ParamBox::at(source_at(lo_mib), node_count);
  box.source_rate.lo = util::DataRate::mib_per_sec(lo_mib).in_bytes_per_sec();
  box.source_rate.hi = util::DataRate::mib_per_sec(hi_mib).in_bytes_per_sec();
  return box;
}

TEST(IntervalTest, CertifiesStabilityOnAFullyStableBox) {
  const auto cert =
      certify_stability(two_stage(), source_at(100.0), {},
                        rate_box(50.0, 130.0, 2));
  EXPECT_TRUE(cert.stable_everywhere);
  EXPECT_FALSE(cert.unstable_everywhere);
  EXPECT_TRUE(cert.violating_face.empty());
  EXPECT_TRUE(cert.report.clean());
  ASSERT_EQ(cert.nodes.size(), 2u);
  for (const auto& n : cert.nodes) {
    EXPECT_LT(n.rho_hi, 1.0) << n.name;
    EXPECT_LE(n.rho_lo, n.rho_hi) << n.name;
  }
}

TEST(IntervalTest, ReportsViolatingFaceOnAPartiallyUnstableBox) {
  // The worst-case basis rate of stage "b" is 140 MiB/s: a source interval
  // straddling it is stable at the low corner, unstable at the high one.
  const auto cert =
      certify_stability(two_stage(), source_at(100.0), {},
                        rate_box(100.0, 160.0, 2));
  EXPECT_FALSE(cert.stable_everywhere);
  EXPECT_FALSE(cert.unstable_everywhere);
  EXPECT_FALSE(cert.violating_face.empty());
  EXPECT_NE(cert.violating_face.find("source.rate"), std::string::npos);
  EXPECT_FALSE(cert.report.clean());
  EXPECT_TRUE(cert.report.has_code("NC604"));
}

TEST(IntervalTest, FlagsWholeBoxInstability) {
  const auto cert =
      certify_stability(two_stage(), source_at(300.0), {},
                        rate_box(250.0, 300.0, 2));
  EXPECT_FALSE(cert.stable_everywhere);
  EXPECT_TRUE(cert.unstable_everywhere);
  EXPECT_TRUE(cert.report.has_code("NC604"));
}

TEST(IntervalTest, ServiceScaleIntervalWidensUtilization) {
  // A degenerate-rate box whose node "b" may run anywhere between 0.5x and
  // 1.2x of its basis service: the rho interval must cover both corners.
  ParamBox box = ParamBox::at(source_at(100.0), 2);
  box.service_scale[1] = {0.5, 1.2};
  const auto cert =
      certify_stability(two_stage(), source_at(100.0), {}, box);
  ASSERT_EQ(cert.nodes.size(), 2u);
  // At 0.5x, stage b guarantees only 70 MiB/s worst-case against 100
  // offered: unstable at that face, stable at 1.2x.
  EXPECT_GE(cert.nodes[1].rho_hi, 1.0);
  EXPECT_LT(cert.nodes[1].rho_lo, 1.0);
  EXPECT_FALSE(cert.stable_everywhere);
  EXPECT_FALSE(cert.unstable_everywhere);
  EXPECT_NE(cert.violating_face.find("b.service_scale"),
            std::string::npos);
}

TEST(IntervalTest, DegenerateBoxAgreesWithLintOnBlastSweep) {
  // Sweep the BLAST capacity-planning grid: at every degenerate box the
  // interval verdict must equal nclint's per-point NC101 decision.
  const auto nodes = apps::blast::nodes();
  for (const double offered :
       {150.0, 250.0, 330.0, 352.0, 360.0, 500.0, 704.0}) {
    netcalc::SourceSpec src = apps::blast::streaming_source();
    src.rate = util::DataRate::mib_per_sec(offered);
    const auto lint =
        diagnostics::lint_pipeline(nodes, src, apps::blast::policy());
    const auto cert = certify_stability(
        nodes, src, apps::blast::policy(),
        ParamBox::at(src, nodes.size()));
    EXPECT_EQ(cert.stable_everywhere, !lint.has_code("NC101"))
        << "offered " << offered << " MiB/s";
    EXPECT_EQ(cert.stable_everywhere, !cert.unstable_everywhere)
        << "degenerate box must give a two-sided verdict at " << offered;
  }
}

TEST(IntervalTest, DagDegenerateBoxAgreesWithLint) {
  // Fork-join: source -> a, a -> {b (60%), c (40%)}.
  netcalc::DagSpec dag;
  dag.nodes = {
      NodeSpec::from_rates("a", NodeKind::kCompute,
                           util::DataSize::kib(64),
                           util::DataRate::mib_per_sec(180),
                           util::DataRate::mib_per_sec(200),
                           util::DataRate::mib_per_sec(220)),
      NodeSpec::from_rates("b", NodeKind::kCompute,
                           util::DataSize::kib(64),
                           util::DataRate::mib_per_sec(90),
                           util::DataRate::mib_per_sec(100),
                           util::DataRate::mib_per_sec(110)),
      NodeSpec::from_rates("c", NodeKind::kCompute,
                           util::DataSize::kib(64),
                           util::DataRate::mib_per_sec(45),
                           util::DataRate::mib_per_sec(50),
                           util::DataRate::mib_per_sec(55)),
  };
  dag.edges = {{0, 1, 0.6}, {0, 2, 0.4}};
  dag.entries = {{0, 0, 1.0}};
  for (const double offered : {60.0, 120.0, 200.0}) {
    const auto src = source_at(offered);
    const auto lint = diagnostics::lint_dag(dag, src);
    const auto cert = certify_stability_dag(
        dag, src, {}, ParamBox::at(src, dag.nodes.size()));
    EXPECT_EQ(cert.stable_everywhere, !lint.has_code("NC101"))
        << "offered " << offered << " MiB/s";
  }
}

TEST(IntervalTest, DagPartialBoxNamesViolatingFace) {
  const netcalc::DagSpec dag = netcalc::DagSpec::chain({
      NodeSpec::from_rates("split", NodeKind::kCompute,
                           util::DataSize::kib(64),
                           util::DataRate::mib_per_sec(180),
                           util::DataRate::mib_per_sec(200),
                           util::DataRate::mib_per_sec(220)),
      NodeSpec::from_rates("sink", NodeKind::kCompute,
                           util::DataSize::kib(64),
                           util::DataRate::mib_per_sec(90),
                           util::DataRate::mib_per_sec(100),
                           util::DataRate::mib_per_sec(110)),
  });
  ParamBox box = ParamBox::at(source_at(80.0), 2);
  box.source_rate.hi = source_at(120.0).rate.in_bytes_per_sec();
  const auto cert = certify_stability_dag(dag, source_at(80.0), {}, box);
  EXPECT_FALSE(cert.stable_everywhere);
  EXPECT_FALSE(cert.unstable_everywhere);
  EXPECT_NE(cert.violating_face.find("source.rate"), std::string::npos);
}

TEST(IntervalTest, RejectsMalformedBoxes) {
  ParamBox backwards = ParamBox::at(source_at(100.0), 2);
  backwards.source_rate = {200.0, 100.0};  // lo > hi
  EXPECT_THROW(
      certify_stability(two_stage(), source_at(100.0), {}, backwards),
      util::Error);

  ParamBox negative = ParamBox::at(source_at(100.0), 2);
  negative.service_scale[0] = {-0.5, 1.0};
  EXPECT_THROW(
      certify_stability(two_stage(), source_at(100.0), {}, negative),
      util::Error);

  ParamBox wrong_count = ParamBox::at(source_at(100.0), 3);
  EXPECT_THROW(
      certify_stability(two_stage(), source_at(100.0), {}, wrong_count),
      util::Error);
}

}  // namespace
}  // namespace streamcalc::certify
