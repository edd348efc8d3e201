// Certification false-positive property (DESIGN.md §9): every pipeline the
// scenario generator produces is valid and underloaded by construction, so
// the proof-carrying checker must certify every bound its model reports —
// a rejection on a generated scenario would be a checker false positive,
// and STREAMCALC_CERTIFY=strict would abort sound analyses.
//
// Second property: at a degenerate (zero-width) parameter box, interval
// stability certification must agree exactly with nclint's per-point NC101
// verdict — for the generator's stable scenarios and for deliberately
// overloaded variants of them.
//
// Third property: a chain and its one-path DAG lint and certify the same.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "certify/interval.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/pipeline.hpp"
#include "testing/generator.hpp"
#include "testing/property.hpp"
#include "util/format.hpp"
#include "util/units.hpp"

namespace streamcalc::testing {
namespace {

void expect_all_certify(ScenarioGenConfig gen, std::uint64_t seed,
                        int default_cases) {
  ScenarioGenerator scenarios(gen, seed);
  const int n = scaled_cases(default_cases);
  for (int i = 0; i < n; ++i) {
    const Scenario s = scenarios.next();
    const netcalc::PipelineModel model(s.nodes, s.source);
    const auto report = certify::certify_pipeline(model);
    EXPECT_TRUE(report.clean())
        << "scenario " << i << " (seed 0x" << std::hex << seed << std::dec
        << "): " << s.describe() << "\n"
        << report.render("generated");
  }
}

TEST(CertifyCleanProperty, PlainChainsCertifyClean) {
  ScenarioGenConfig gen;
  gen.volume_changes = false;
  gen.aggregation = false;
  expect_all_certify(gen, 0x5e1f, 60);
}

TEST(CertifyCleanProperty, VolumeChangingAggregatingChainsCertifyClean) {
  ScenarioGenConfig gen;  // volume_changes and aggregation on by default
  gen.max_stages = 6;
  expect_all_certify(gen, 0x5e20, 60);
}

TEST(CertifyCleanProperty, NearCriticalChainsCertifyClean) {
  ScenarioGenConfig gen;
  gen.load_lo = 0.9;
  gen.load_hi = 0.97;
  expect_all_certify(gen, 0x5e21, 40);
}

TEST(CertifyCleanProperty, DegenerateBoxAgreesWithLintVerdicts) {
  // For each generated scenario, check the zero-width box against nclint
  // both at the generator's (stable) operating point and at 4x the offered
  // rate, which overloads most scenarios: NC604 must appear exactly when
  // NC101 does.
  ScenarioGenConfig gen;
  ScenarioGenerator scenarios(gen, 0x5e22);
  const int n = scaled_cases(150);
  for (int i = 0; i < n; ++i) {
    const Scenario s = scenarios.next();
    for (const double factor : {1.0, 4.0}) {
      netcalc::SourceSpec src = s.source;
      src.rate = util::DataRate::bytes_per_sec(
          src.rate.in_bytes_per_sec() * factor);
      const auto lint = diagnostics::lint_pipeline(s.nodes, src);
      const auto cert = certify::certify_stability(
          s.nodes, src, {}, certify::ParamBox::at(src, s.nodes.size()));
      EXPECT_EQ(cert.stable_everywhere, !lint.has_code("NC101"))
          << "scenario " << i << " x" << factor << ": " << s.describe();
      EXPECT_EQ(cert.report.has_code("NC604"), lint.has_code("NC101"))
          << "scenario " << i << " x" << factor << ": " << s.describe();
      // A zero-width box has a two-sided verdict: stable or unstable
      // everywhere, never "partially".
      EXPECT_NE(cert.stable_everywhere, cert.unstable_everywhere)
          << "scenario " << i << " x" << factor << ": " << s.describe();
    }
  }
}

TEST(CertifyCleanProperty, ChainAgreesWithItsOnePathDag) {
  // A chain is its one-path DAG: the chain entry points are forwards to
  // the DAG ones on DagSpec::chain, so lint must report the same findings,
  // word for word, and the stability certificate the same rho intervals,
  // bit for bit, whichever entry point takes it. At 4x the offered rate
  // most scenarios overload, so the NC101 messages are compared too.
  ScenarioGenConfig gen;
  ScenarioGenerator scenarios(gen, 0x5e23);
  const int n = scaled_cases(150);
  for (int i = 0; i < n; ++i) {
    const Scenario s = scenarios.next();
    const netcalc::DagSpec dag = netcalc::DagSpec::chain(s.nodes);
    for (const double factor : {1.0, 4.0}) {
      netcalc::SourceSpec src = s.source;
      src.rate = util::DataRate::bytes_per_sec(
          src.rate.in_bytes_per_sec() * factor);
      std::string where = "scenario ";
      where += std::to_string(i);
      where += " x" + util::format_significant(factor) + ": " + s.describe();
      const auto chain = diagnostics::lint_pipeline(s.nodes, src);
      const auto graph = diagnostics::lint_dag(dag, src);
      ASSERT_EQ(chain.diagnostics().size(), graph.diagnostics().size())
          << where << "\n"
          << chain.render("chain") << graph.render("dag");
      for (std::size_t k = 0; k < chain.diagnostics().size(); ++k) {
        const diagnostics::Diagnostic& a = chain.diagnostics()[k];
        const diagnostics::Diagnostic& b = graph.diagnostics()[k];
        EXPECT_EQ(a.code, b.code) << where;
        EXPECT_EQ(a.severity, b.severity) << where;
        EXPECT_EQ(a.location, b.location) << where;
        EXPECT_EQ(a.message, b.message) << where;
        EXPECT_EQ(a.hint, b.hint) << where;
      }

      const auto box = certify::ParamBox::at(src, s.nodes.size());
      const auto cs = certify::certify_stability(s.nodes, src, {}, box);
      const auto ds = certify::certify_stability_dag(dag, src, {}, box);
      ASSERT_EQ(cs.nodes.size(), ds.nodes.size()) << where;
      for (std::size_t k = 0; k < cs.nodes.size(); ++k) {
        EXPECT_EQ(cs.nodes[k].name, ds.nodes[k].name) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cs.nodes[k].rho_lo),
                  std::bit_cast<std::uint64_t>(ds.nodes[k].rho_lo))
            << where << " node " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cs.nodes[k].rho_hi),
                  std::bit_cast<std::uint64_t>(ds.nodes[k].rho_hi))
            << where << " node " << k;
      }
      EXPECT_EQ(cs.violating_face, ds.violating_face) << where;
      EXPECT_EQ(cs.report.render("box"), ds.report.render("box")) << where;
    }
  }
}

}  // namespace
}  // namespace streamcalc::testing
