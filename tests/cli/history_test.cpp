// History independence: what `streamcalc analyze --json` and
// `streamcalc certify --json` print for a spec is a function of that spec
// alone, not of what the process computed before it.
//
// ctest runs every case of this binary as its own process, so a case's
// first computation is the first analysis in the process. The case then
// analyzes and certifies every other example spec and diagnostics fixture
// and requires the repeat to be byte-identical to the first run.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "util/context.hpp"

#if !defined(SC_SPEC_DIR) || !defined(SC_LINT_SPEC_DIR)
#error "SC_SPEC_DIR and SC_LINT_SPEC_DIR must be defined by the build"
#endif

namespace streamcalc::cli {
namespace {

struct SpecFile {
  std::string path;
  std::string stem() const {
    return std::filesystem::path(path).stem().string();
  }
  bool operator<(const SpecFile& other) const { return path < other.path; }
};

void PrintTo(const SpecFile& spec, std::ostream* os) { *os << spec.stem(); }

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
/// 1e-6; a spec the analysis rejects contributes its error message.
std::string analysis_json(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::string out;
  for (const double epsilon : {-1.0, 1e-6}) {
    try {
      out += render_json(
          compute_analysis(parse_spec(text.str()), util::Context{}, epsilon));
    } catch (const std::exception& e) {
      out += std::string("error: ") + e.what() + "\n";
    }
  }
  return out;
}

/// stdout of `streamcalc certify --json <path>`, plus its exit code.
std::string certify_json(const std::string& path) {
  Options opts;
  opts.command = "certify";
  opts.json = true;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code = run_certify({path}, opts);
  std::string out = ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  out += "exit code ";
  out += std::to_string(code);
  out += "\n";
  return out;
}

std::string both_outputs(const std::string& path) {
  return analysis_json(path) + certify_json(path);
}

class HistoryIndependence : public ::testing::TestWithParam<SpecFile> {};

TEST_P(HistoryIndependence, RepeatAfterEveryOtherSpecIsByteIdentical) {
  const std::string& path = GetParam().path;
  const std::string first = both_outputs(path);
  for (const SpecFile& other : all_specs()) {
    if (other.path != path) (void)both_outputs(other.path);
  }
  EXPECT_EQ(first, both_outputs(path));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, HistoryIndependence, ::testing::ValuesIn(all_specs()),
    [](const ::testing::TestParamInfo<SpecFile>& param) {
      return param.param.stem();
    });

}  // namespace
}  // namespace streamcalc::cli
