// Golden tests for the nclint passes: one minimal bad model per diagnostic
// code, plus the report/registry mechanics and the STREAMCALC_LINT wiring.
#include "diagnostics/lint.hpp"

#include <gtest/gtest.h>

#include <string>

#include "diagnostics/diagnostic.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "util/context.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace streamcalc::diagnostics {
namespace {

using netcalc::DagSpec;
using netcalc::ModelPolicy;
using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::RateBasis;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;

/// A plausible compute stage guaranteeing `rate_mib` MiB/s.
NodeSpec stage(std::string name, double rate_mib) {
  return NodeSpec::from_rates(std::move(name), NodeKind::kCompute,
                              DataSize::kib(64),
                              DataRate::mib_per_sec(rate_mib),
                              DataRate::mib_per_sec(rate_mib * 1.1),
                              DataRate::mib_per_sec(rate_mib * 1.2));
}

SourceSpec source_at(double rate_mib) {
  SourceSpec s;
  s.rate = DataRate::mib_per_sec(rate_mib);
  s.burst = DataSize::kib(64);
  return s;
}

// --- Chain pipeline passes ------------------------------------------------

TEST(LintPipelineTest, ValidModelIsCleanWithNoFindings) {
  const auto report = lint_pipeline({stage("a", 100), stage("b", 150)},
                                    source_at(50));
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST(LintPipelineTest, EmptyPipelineIsNC001) {
  const auto report = lint_pipeline({}, source_at(50));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC001"));
}

TEST(LintPipelineTest, InvalidNodeIsNC001) {
  NodeSpec bad;  // zero blocks and times: NodeSpec::validate throws
  bad.name = "broken";
  const auto report = lint_pipeline({bad}, source_at(50));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC001"));
  EXPECT_EQ(report.diagnostics().front().location, "broken");
}

TEST(LintPipelineTest, NegativeLatencyOverrideIsNC002) {
  NodeSpec n = stage("warp", 100);
  n.latency_override = Duration::micros(-50);
  const auto report = lint_pipeline({n}, source_at(50));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC002"));
}

TEST(LintPipelineTest, NonPositiveSourceRateIsNC003) {
  const auto report = lint_pipeline({stage("a", 100)}, source_at(0));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC003"));
}

TEST(LintPipelineTest, ZeroFiniteJobVolumeIsNC003) {
  SourceSpec s = source_at(50);
  s.job_volume = DataSize::bytes(0);
  const auto report = lint_pipeline({stage("a", 100)}, s);
  EXPECT_TRUE(report.has_code("NC003"));
}

TEST(LintPipelineTest, OverloadedNodeIsNC101Warning) {
  const auto report = lint_pipeline({stage("slow", 100)}, source_at(200));
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC101"));
  EXPECT_NE(report.diagnostics().front().message.find("rho"),
            std::string::npos);
}

TEST(LintPipelineTest, FiniteJobSoftensNC101Message) {
  SourceSpec s = source_at(200);
  s.job_volume = DataSize::gib(4);
  const auto report = lint_pipeline({stage("slow", 100)}, s);
  ASSERT_TRUE(report.has_code("NC101"));
  EXPECT_NE(report.diagnostics().front().message.find("finite job volume"),
            std::string::npos);
}

TEST(LintPipelineTest, NearCriticalLoadIsNC102Info) {
  const auto report = lint_pipeline({stage("tight", 100)}, source_at(96));
  EXPECT_TRUE(report.clean());  // info only
  EXPECT_TRUE(report.has_code("NC102"));
}

TEST(LintPipelineTest, StabilityUsesVolumeNormalization) {
  // A filtering stage (volume.max = 0.5) halves downstream load: 60 MiB/s
  // of guaranteed rate at 'b' handles 100 MiB/s offered upstream.
  NodeSpec filter = stage("a", 150);
  filter.volume = netcalc::VolumeRatio::exact(0.5);
  const auto report = lint_pipeline({filter, stage("b", 60)}, source_at(100));
  EXPECT_TRUE(report.clean()) << "rho(b) = 100 / (60 / 0.5) should be 0.83";
}

TEST(LintPipelineTest, UpstreamClippingLimitsDownstreamLoad) {
  // 'a' is the only unstable node: it clips the flow to 50 MiB/s, so 'b'
  // (60 MiB/s) is fine even though the source offers 100 MiB/s.
  const auto report =
      lint_pipeline({stage("a", 50), stage("b", 60)}, source_at(100));
  ASSERT_EQ(report.count(Severity::kWarning), 1u);
  EXPECT_EQ(report.diagnostics().front().location, "a");
}

// --- DAG passes -----------------------------------------------------------

/// source -> a -> join, source -> b -> join: the fork/join diamond.
DagSpec diamond(double join_rate_mib) {
  DagSpec dag;
  dag.nodes = {stage("a", 200), stage("b", 200),
               stage("join", join_rate_mib)};
  dag.entries = {{0, 0, 0.5}, {0, 1, 0.5}};
  dag.edges = {{0, 2, 1.0}, {1, 2, 1.0}};
  return dag;
}

TEST(LintDagTest, ValidDagIsClean) {
  EXPECT_TRUE(lint_dag(diamond(200), source_at(100)).clean());
}

TEST(LintDagTest, EdgeIndexOutOfRangeIsNC301) {
  DagSpec dag = diamond(200);
  dag.edges.push_back({0, 99, 1.0});
  const auto report = lint_dag(dag, source_at(100));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC301"));
}

TEST(LintDagTest, NoEntriesIsNC301) {
  DagSpec dag = diamond(200);
  dag.entries.clear();
  EXPECT_TRUE(lint_dag(dag, source_at(100)).has_code("NC301"));
}

TEST(LintDagTest, OutgoingFractionsAboveOneIsNC301) {
  DagSpec dag = diamond(200);
  dag.edges = {{0, 2, 0.7}, {0, 2, 0.7}, {1, 2, 1.0}};
  const auto report = lint_dag(dag, source_at(100));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC301"));
}

TEST(LintDagTest, EntryFractionsAboveOneIsNC301) {
  DagSpec dag = diamond(200);
  dag.entries = {{0, 0, 0.8}, {0, 1, 0.8}};
  EXPECT_TRUE(lint_dag(dag, source_at(100)).has_code("NC301"));
}

TEST(LintDagTest, LeakingFractionIsNC302InfoOnly) {
  // 'a' routes only 60% of its output onward: flagged, but still clean
  // (filtering fan-out is a legitimate model).
  DagSpec dag;
  dag.nodes = {stage("a", 200), stage("b", 200)};
  dag.entries = {{0, 0, 1.0}};
  dag.edges = {{0, 1, 0.6}};
  const auto report = lint_dag(dag, source_at(100));
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.has_code("NC302"));
}

TEST(LintDagTest, SelfLoopIsNC303) {
  DagSpec dag = diamond(200);
  dag.edges.push_back({1, 1, 1.0});
  const auto report = lint_dag(dag, source_at(100));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC303"));
}

TEST(LintDagTest, CycleIsNC303) {
  DagSpec dag;
  dag.nodes = {stage("a", 200), stage("b", 200), stage("c", 200)};
  dag.entries = {{0, 0, 1.0}};
  dag.edges = {{0, 1, 1.0}, {1, 2, 1.0}, {2, 1, 0.1}};
  const auto report = lint_dag(dag, source_at(100));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC303"));
}

TEST(LintDagTest, UnfedNodeIsNC304) {
  // 'orphan' receives no flow; DagSpec::validate() rejects it too, and
  // lint reports it as a located finding.
  DagSpec dag;
  dag.nodes = {stage("a", 200), stage("orphan", 200)};
  dag.entries = {{0, 0, 1.0}};
  const auto report = lint_dag(dag, source_at(100));
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("NC304"));
}

TEST(LintDagTest, SaturatedFanInIsNC305) {
  // Both branches deliver 50 MiB/s into an 80 MiB/s join: the combined
  // 100 MiB/s absorbs the guarantee, so each path's residual vanishes.
  const auto report = lint_dag(diamond(80), source_at(100));
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has_code("NC305"));
  EXPECT_TRUE(report.has_code("NC101"));
}

// --- Unit-coherence heuristics (always info) ------------------------------

TEST(LintUnitsTest, TinyBlockIsNC401Info) {
  const NodeSpec n = NodeSpec::from_rates(
      "bitty", NodeKind::kCompute, DataSize::bytes(16),
      DataRate::mib_per_sec(100), DataRate::mib_per_sec(110),
      DataRate::mib_per_sec(120));
  const auto report = lint_pipeline({n}, source_at(50));
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.has_code("NC401"));
}

TEST(LintUnitsTest, TinyRateIsNC402Info) {
  const NodeSpec n = NodeSpec::from_rates(
      "slowpoke", NodeKind::kCompute, DataSize::kib(64),
      DataRate::bytes_per_sec(512), DataRate::bytes_per_sec(600),
      DataRate::bytes_per_sec(700));
  SourceSpec s;
  s.rate = DataRate::bytes_per_sec(128);
  const auto report = lint_pipeline({n}, s);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.has_code("NC402"));
}

TEST(LintUnitsTest, HugeTimeMaxIsNC403Info) {
  const NodeSpec n =
      NodeSpec::compute("glacial", DataSize::mib(64), DataSize::mib(64),
                        Duration::seconds(100), Duration::seconds(200));
  const auto report = lint_pipeline({n}, source_at(0.1));
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.has_code("NC403"));
}

// --- Policy passes --------------------------------------------------------

TEST(LintPolicyTest, MaxServiceBasisIsNC501Warning) {
  ModelPolicy policy;
  policy.service_basis = RateBasis::kMax;
  const auto report =
      lint_pipeline({stage("a", 100)}, source_at(50), policy);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has_code("NC501"));
}

TEST(LintPolicyTest, CeilingBelowGuaranteeIsNC502Info) {
  ModelPolicy policy;
  policy.service_basis = RateBasis::kAvg;
  policy.max_service_basis = RateBasis::kMin;
  const auto report =
      lint_pipeline({stage("a", 100)}, source_at(50), policy);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.has_code("NC502"));
}

// --- Report mechanics and registry ----------------------------------------

TEST(LintReportTest, RegistryTitlesEveryEmittedCode) {
  for (const char* code :
       {"NC001", "NC002", "NC003", "NC101", "NC102", "NC301", "NC302",
        "NC303", "NC304", "NC305", "NC401", "NC402", "NC403", "NC501",
        "NC502"}) {
    EXPECT_NE(code_title(code), nullptr) << code;
  }
  EXPECT_EQ(code_title("NC999"), nullptr);
  // Retired with the curve-shape pass; never reused.
  EXPECT_EQ(code_title("NC201"), nullptr);
  EXPECT_EQ(code_title("NC202"), nullptr);
}

TEST(LintReportTest, RendersCompilerStyleWithHints) {
  LintReport report;
  report.add({"NC101", Severity::kWarning, "seed_match", "rho = 2.0",
              "lower the source rate"});
  const std::string out = report.render("model.scspec");
  EXPECT_EQ(out,
            "model.scspec: warning [NC101] seed_match: rho = 2.0\n"
            "model.scspec:   hint: lower the source rate\n");
}

TEST(LintReportTest, ModelLocationIsSuppressedInRendering) {
  LintReport report;
  report.add({"NC001", Severity::kError, "model", "pipeline has no nodes",
              ""});
  EXPECT_EQ(report.render("x"),
            "x: error [NC001] pipeline has no nodes\n");
}

TEST(LintReportTest, CountsAndMerge) {
  LintReport a;
  a.add({"NC101", Severity::kWarning, "n", "m", ""});
  LintReport b;
  b.add({"NC401", Severity::kInfo, "n", "m", ""});
  a.merge(b);
  EXPECT_EQ(a.diagnostics().size(), 2u);
  EXPECT_EQ(a.count(Severity::kWarning), 1u);
  EXPECT_EQ(a.count(Severity::kInfo), 1u);
  EXPECT_FALSE(a.clean());
  EXPECT_FALSE(a.has_errors());
}

// --- Pre-flight wiring ----------------------------------------------------

util::Context lint_context(util::EnforceMode mode) {
  util::Context ctx;
  ctx.lint = mode;
  return ctx;
}

TEST(PreflightTest, WarnModeDoesNotThrowOnDirtyModel) {
  const util::Context warn = lint_context(util::EnforceMode::kWarn);
  EXPECT_NO_THROW(preflight_pipeline("t", {stage("slow", 100)},
                                     source_at(200), {}, warn));
}

TEST(PreflightTest, StrictModeThrowsOnDirtyModel) {
  const util::Context strict = lint_context(util::EnforceMode::kStrict);
  EXPECT_THROW(preflight_pipeline("t", {stage("slow", 100)}, source_at(200),
                                  {}, strict),
               util::PreconditionError);
  // A clean model sails through even in strict mode.
  EXPECT_NO_THROW(preflight_pipeline("t", {stage("fast", 100)},
                                     source_at(50), {}, strict));
}

TEST(PreflightTest, OffModeSkipsEverything) {
  const util::Context off = lint_context(util::EnforceMode::kOff);
  EXPECT_NO_THROW(preflight_pipeline("t", {stage("slow", 100)},
                                     source_at(200), {}, off));
}

}  // namespace
}  // namespace streamcalc::diagnostics
