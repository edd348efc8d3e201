// Byte-for-byte pins of the analyze reports: every shipped example spec, the
// BLAST fixture and one rate-scaled copy of each (tests/cli/specs/, scaled
// the way perfbench's analyze corpus scales them, so the reports print
// numbers the shipped specs never reach), in text and --json, with sure
// bounds only and at epsilon = 1e-6. A report refactor must leave these
// files unchanged; a deliberate output change regenerates them and shows up
// as a reviewable diff under tests/cli/golden/.
//
// To regenerate after an intentional report change:
//   STREAMCALC_UPDATE_GOLDEN=1 ctest -R ReportPin
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "util/context.hpp"
#include "util/env.hpp"

#ifndef SC_REPORT_GOLDEN_DIR
#error "SC_REPORT_GOLDEN_DIR must be defined by the build"
#endif

namespace streamcalc::cli {
namespace {

struct PinCase {
  const char* dir;   ///< directory holding the spec
  const char* stem;  ///< spec file name without .scspec
  bool json;
  double epsilon;  ///< negative = sure bounds only
};

void PrintTo(const PinCase& c, std::ostream* os) {
  *os << c.stem << (c.json ? " --json" : "") << " epsilon " << c.epsilon;
}

/// "<stem>[_eps1e-6].<txt|json>" under tests/cli/golden/.
std::string golden_path(const PinCase& c) {
  return std::string(SC_REPORT_GOLDEN_DIR) + "/" + c.stem +
         (c.epsilon >= 0.0 ? "_eps1e-6" : "") + (c.json ? ".json" : ".txt");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ReportPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(ReportPin, MatchesGoldenFile) {
  const PinCase& c = GetParam();
  const Spec spec = parse_spec(
      read_file(std::string(c.dir) + "/" + c.stem + ".scspec"));
  const util::Context ctx;
  const std::string current = c.json ? run_report_json(spec, ctx, c.epsilon)
                                     : run_report(spec, ctx, c.epsilon);

  if (util::env_raw("STREAMCALC_UPDATE_GOLDEN")) {
    std::ofstream out(golden_path(c), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path(c);
    out << current;
    GTEST_SKIP() << "golden file regenerated at " << golden_path(c);
  }

  std::ifstream in(golden_path(c));
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path(c)
      << "; run once with STREAMCALC_UPDATE_GOLDEN=1 to create it";
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_EQ(stored.str(), current)
      << "the analyze report drifted from " << golden_path(c)
      << "; if the change is intentional, regenerate with "
         "STREAMCALC_UPDATE_GOLDEN=1 and review the diff";
}

constexpr std::pair<const char*, const char*> kSpecs[] = {
    {SC_SPEC_DIR, "quickstart"},      {SC_SPEC_DIR, "bitw"},
    {SC_SPEC_DIR, "fork_join"},       {SC_SPEC_DIR, "onoff_users"},
    {SC_LINT_SPEC_DIR, "blast_base"},
    {SC_SCALED_SPEC_DIR, "quickstart_x086"},
    {SC_SCALED_SPEC_DIR, "bitw_x116"},
    {SC_SCALED_SPEC_DIR, "fork_join_x086"},
    {SC_SCALED_SPEC_DIR, "onoff_users_x116"},
    {SC_SCALED_SPEC_DIR, "blast_base_x086"},
};

std::vector<PinCase> all_cases() {
  std::vector<PinCase> cases;
  for (const auto& [dir, stem] : kSpecs) {
    for (const bool json : {false, true}) {
      for (const double epsilon : {-1.0, 1e-6}) {
        cases.push_back({dir, stem, json, epsilon});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ReportPin, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<PinCase>& param) {
      const PinCase& c = param.param;
      return std::string(c.stem) + (c.epsilon >= 0.0 ? "_eps" : "") +
             (c.json ? "_json" : "_text");
    });

TEST(ComputeAnalysis, StrictPostflightCertifiesEverySpec) {
  // The certify post-flight inside analyze, in strict mode: every pinned
  // spec certifies (no throw), and certification leaves the report as is.
  util::Context strict;
  strict.certify = util::EnforceMode::kStrict;
  for (const auto& [dir, stem] : kSpecs) {
    const Spec spec = parse_spec(
        read_file(std::string(dir) + "/" + stem + ".scspec"));
    for (const double epsilon : {-1.0, 1e-6}) {
      Analysis a;
      ASSERT_NO_THROW(a = compute_analysis(spec, strict, epsilon))
          << stem << " epsilon " << epsilon;
      EXPECT_EQ(render_text(a), run_report(spec, util::Context{}, epsilon))
          << stem << " epsilon " << epsilon;
    }
  }
}

}  // namespace
}  // namespace streamcalc::cli
