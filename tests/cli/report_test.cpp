#include "cli/report.hpp"

#include <gtest/gtest.h>

namespace streamcalc::cli {
namespace {

constexpr const char* kSpecText = R"(
[source]
rate = 50 MiB/s
burst = 0 B
packet = 64 KiB

[node parse]
block_in = 64 KiB
rate_min = 200 MiB/s
rate_avg = 220 MiB/s
rate_max = 240 MiB/s

[node slow]
block_in = 64 KiB
rate_min = 90 MiB/s
rate_avg = 100 MiB/s
rate_max = 110 MiB/s

[analysis]
horizon = 500 ms
simulate = true
seed = 5
)";

TEST(Report, ContainsAllSections) {
  const std::string out =
      run_report(parse_spec(kSpecText), util::Context{});
  EXPECT_NE(out.find("regime:   underloaded"), std::string::npos);
  EXPECT_NE(out.find("bottleneck: slow"), std::string::npos);
  EXPECT_NE(out.find("delay    d <="), std::string::npos);
  EXPECT_NE(out.find("backlog  x <="), std::string::npos);
  EXPECT_NE(out.find("M/M/1 roofline"), std::string::npos);
  EXPECT_NE(out.find("per-node analysis:"), std::string::npos);
  EXPECT_NE(out.find("| parse"), std::string::npos);
  EXPECT_NE(out.find("| slow"), std::string::npos);
  EXPECT_NE(out.find("simulation (seed 5):"), std::string::npos);
  EXPECT_NE(out.find("within bounds: delay yes, backlog yes"),
            std::string::npos);
}

TEST(Report, SkipsSimulationWhenDisabled) {
  Spec spec = parse_spec(kSpecText);
  spec.analysis.simulate = false;
  const std::string out = run_report(spec, util::Context{});
  EXPECT_EQ(out.find("simulation"), std::string::npos);
}

TEST(Report, OverloadedPipelineReported) {
  Spec spec = parse_spec(kSpecText);
  spec.source.rate = util::DataRate::mib_per_sec(500);
  spec.analysis.simulate = false;
  const std::string out = run_report(spec, util::Context{});
  EXPECT_NE(out.find("regime:   overloaded"), std::string::npos);
  EXPECT_NE(out.find("delay    d <= inf"), std::string::npos);
}

}  // namespace
}  // namespace streamcalc::cli
