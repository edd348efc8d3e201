// Instrumentation must be passive: running the same analysis with the
// tracer recording has to produce bit-identical bounds to the untraced
// run, and switching obs off at run time (STREAMCALC_OBS=off) has to
// produce byte-identical reports while no counter moves and no span is
// recorded. This is the property that lets --stats and --trace be turned
// on in production, and obs be turned off, without changing any result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/certify.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "obs/obs.hpp"
#include "util/context.hpp"

#if !defined(SC_SPEC_DIR) || !defined(SC_LINT_SPEC_DIR)
#error "SC_SPEC_DIR and SC_LINT_SPEC_DIR must be defined by the build"
#endif

namespace streamcalc {
namespace {

using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::PipelineModel;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;

struct Bounds {
  double delay;
  double backlog;
  double total_latency;
};

Bounds analyze_once() {
  std::vector<NodeSpec> nodes;
  nodes.push_back(NodeSpec::from_rates(
      "decode", NodeKind::kCompute, DataSize::kib(64),
      DataRate::mib_per_sec(150), DataRate::mib_per_sec(160),
      DataRate::mib_per_sec(170)));
  nodes.push_back(NodeSpec::from_rates(
      "filter", NodeKind::kCompute, DataSize::kib(64),
      DataRate::mib_per_sec(90), DataRate::mib_per_sec(100),
      DataRate::mib_per_sec(110)));
  SourceSpec source;
  source.rate = DataRate::mib_per_sec(60);
  source.burst = DataSize::kib(64);
  const PipelineModel model(std::move(nodes), source);
  return Bounds{model.delay_bound().value.in_seconds(),
                model.backlog_bound().value.in_bytes(),
                model.total_latency().in_seconds()};
}

std::uint64_t convolve_calls() {
  return obs::Registry::global().counter("minplus.convolve.calls").value();
}

TEST(ObsIdentityTest, TracedAnalysisIsBitIdenticalToUntraced) {
  obs::set_enabled(true);
  obs::Tracer::global().stop();
  obs::Tracer::global().clear();
  const Bounds untraced = analyze_once();

  const std::uint64_t calls0 = convolve_calls();
  obs::Tracer::global().start();
  const Bounds traced = analyze_once();
  obs::Tracer::global().stop();

  // Bitwise equality, not EXPECT_NEAR: instrumentation may not perturb
  // the arithmetic at all.
  EXPECT_EQ(untraced.delay, traced.delay);
  EXPECT_EQ(untraced.backlog, traced.backlog);
  EXPECT_EQ(untraced.total_latency, traced.total_latency);

  // And the traced run did actually record the min-plus work.
  EXPECT_GT(convolve_calls(), calls0);
  EXPECT_FALSE(obs::Tracer::global().snapshot().empty());
  obs::Tracer::global().clear();
}

TEST(ObsIdentityTest, RuntimeOffAnalysisIsBitIdenticalToo) {
  obs::set_enabled(true);
  const Bounds on = analyze_once();
  obs::set_enabled(false);
  const Bounds off = analyze_once();
  obs::set_enabled(true);
  EXPECT_EQ(on.delay, off.delay);
  EXPECT_EQ(on.backlog, off.backlog);
  EXPECT_EQ(on.total_latency, off.total_latency);
}

struct SpecFile {
  std::string path;
  std::string stem() const {
    return std::filesystem::path(path).stem().string();
  }
  bool operator<(const SpecFile& other) const { return path < other.path; }
};

void PrintTo(const SpecFile& spec, std::ostream* os) { *os << spec.stem(); }

/// The example specs and the diagnostics fixtures.
std::vector<SpecFile> all_specs() {
  std::vector<SpecFile> specs;
  for (const char* dir : {SC_SPEC_DIR, SC_LINT_SPEC_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".scspec") {
        specs.push_back({entry.path().string()});
      }
    }
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

/// render_json(compute_analysis(...)) with sure bounds and at epsilon
/// 1e-6, then stdout and exit code of `streamcalc certify --json`; a spec
/// the analysis rejects contributes its error message.
std::string outputs(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::string out;
  for (const double epsilon : {-1.0, 1e-6}) {
    try {
      out += cli::render_json(cli::compute_analysis(
          cli::parse_spec(text.str()), util::Context{}, epsilon));
    } catch (const std::exception& e) {
      out += std::string("error: ") + e.what() + "\n";
    }
  }
  cli::Options opts;
  opts.command = "certify";
  opts.json = true;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code = cli::run_certify({path}, opts);
  out += ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  return out + "exit " + std::to_string(code) + "\n";
}

class ObsIdentitySpecTest : public ::testing::TestWithParam<SpecFile> {
 protected:
  void TearDown() override {
    obs::Tracer::global().stop();
    obs::Tracer::global().clear();
    obs::set_enabled(true);
  }
};

TEST_P(ObsIdentitySpecTest, RuntimeOffIsByteIdenticalAndRecordsNothing) {
  obs::set_enabled(true);
  obs::Tracer::global().start();
  const std::string on = outputs(GetParam().path);
  EXPECT_FALSE(obs::Tracer::global().snapshot().empty());

  // The tracer stays started, so only the runtime switch keeps spans
  // dormant.
  obs::Tracer::global().clear();
  obs::set_enabled(false);
  const std::string registry = obs::Registry::global().json();
  const std::string off = outputs(GetParam().path);
  EXPECT_EQ(off, on);
  EXPECT_EQ(obs::Registry::global().json(), registry);
  EXPECT_TRUE(obs::Tracer::global().snapshot().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ObsIdentitySpecTest, ::testing::ValuesIn(all_specs()),
    [](const ::testing::TestParamInfo<SpecFile>& param) {
      return param.param.stem();
    });

}  // namespace
}  // namespace streamcalc
