// The spec files shipped under examples/specs/ must parse and analyze
// cleanly — golden tests so the documentation artifacts cannot rot.
// The directory is injected at configure time.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli/report.hpp"
#include "cli/spec.hpp"

#ifndef SC_SPEC_DIR
#error "SC_SPEC_DIR must be defined by the build"
#endif

namespace streamcalc::cli {
namespace {

std::string read_file(const std::string& name) {
  std::ifstream in(std::string(SC_SPEC_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(GoldenSpecs, QuickstartParsesAndReports) {
  const Spec spec = parse_spec(read_file("quickstart.scspec"));
  EXPECT_EQ(spec.nodes.size(), 3u);
  const std::string out = run_report(spec, util::Context{});
  EXPECT_NE(out.find("bottleneck: transform"), std::string::npos);
  EXPECT_NE(out.find("within bounds: delay yes, backlog yes"),
            std::string::npos);
}

TEST(GoldenSpecs, BitwReproducesHeadlineNumbers) {
  const Spec spec = parse_spec(read_file("bitw.scspec"));
  EXPECT_EQ(spec.nodes.size(), 6u);
  const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);
  // The CLI spec mirrors apps::bitw: same delay bound (38.4 us) and
  // bottleneck.
  EXPECT_NEAR(model.delay_bound().value.in_micros(), 38.4, 1.0);
  EXPECT_EQ(spec.nodes[model.bottleneck()].name, "encrypt");
}

TEST(GoldenSpecs, ForkJoinDagParsesAndReports) {
  const Spec spec = parse_spec(read_file("fork_join.scspec"));
  ASSERT_TRUE(spec.is_dag());
  const std::string out = run_report(spec, util::Context{});
  EXPECT_NE(out.find("ingest -> video -> mux"), std::string::npos);
  EXPECT_NE(out.find("within bounds: delay yes, backlog yes"),
            std::string::npos);
}

}  // namespace
}  // namespace streamcalc::cli
