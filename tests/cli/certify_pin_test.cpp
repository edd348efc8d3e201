// Byte-for-byte pins of `streamcalc certify` output: every shipped example
// spec and every diagnostics fixture, in text and --json. The fixtures
// include the non-causal specs (lint findings, exit code 2) and the
// overloaded ones (infinite bounds that certify, with a violated stability
// verdict). A change to the certifier that is meant to keep its results
// must leave these files unchanged.
//
// Each run happens with the repository root as working directory, so the
// paths in the output are the relative ones a user would type. A text pin
// holds stdout, then stderr after a "--- stderr" line when there is any,
// then a "--- exit code N" line; a JSON pin holds stdout only (the
// document carries its own exit_code).
//
// To regenerate after an intentional output change:
//   STREAMCALC_UPDATE_GOLDEN=1 ctest -R CertifyPin
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/certify.hpp"
#include "cli/options.hpp"
#include "util/env.hpp"

#if !defined(SC_SOURCE_DIR) || !defined(SC_REPORT_GOLDEN_DIR)
#error "SC_SOURCE_DIR and SC_REPORT_GOLDEN_DIR must be defined by the build"
#endif

namespace streamcalc::cli {
namespace {

struct CertifyCase {
  const char* dir;   ///< spec directory, relative to the repository root
  const char* stem;  ///< spec file name without .scspec
  bool json;
};

void PrintTo(const CertifyCase& c, std::ostream* os) {
  *os << c.dir << "/" << c.stem << (c.json ? " --json" : "");
}

/// "certify_<stem>.<txt|json>" under tests/cli/golden/.
std::string golden_path(const CertifyCase& c) {
  return std::string(SC_REPORT_GOLDEN_DIR) + "/certify_" + c.stem +
         (c.json ? ".json" : ".txt");
}

/// Runs `streamcalc certify [--json] <dir>/<stem>.scspec` in process from
/// the repository root and returns its transcript in the pin format.
std::string certify_transcript(const CertifyCase& c) {
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(SC_SOURCE_DIR);
  Options opts;
  opts.command = "certify";
  opts.json = c.json;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code =
      run_certify({std::string(c.dir) + "/" + c.stem + ".scspec"}, opts);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  std::filesystem::current_path(cwd);
  if (c.json) return out;
  std::string transcript = out;
  if (!err.empty()) transcript += "--- stderr\n" + err;
  transcript += "--- exit code " + std::to_string(code) + "\n";
  return transcript;
}

class CertifyPin : public ::testing::TestWithParam<CertifyCase> {};

TEST_P(CertifyPin, MatchesGoldenFile) {
  const CertifyCase& c = GetParam();
  const std::string current = certify_transcript(c);

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
      << "the certify output drifted from " << golden_path(c)
      << "; if the change is intentional, regenerate with "
         "STREAMCALC_UPDATE_GOLDEN=1 and review the diff";
}

constexpr const char* kExamples = "examples/specs";
constexpr const char* kFixtures = "tests/diagnostics/specs";

constexpr std::pair<const char*, const char*> kSpecs[] = {
    {kExamples, "quickstart"},     {kExamples, "bitw"},
    {kExamples, "fork_join"},      {kExamples, "onoff_users"},
    {kFixtures, "blast_base"},     {kFixtures, "blast_noncausal"},
    {kFixtures, "blast_unstable"}, {kFixtures, "bitw_noncausal"},
    {kFixtures, "bitw_unstable"},
};

std::vector<CertifyCase> all_cases() {
  std::vector<CertifyCase> cases;
  for (const auto& [dir, stem] : kSpecs) {
    for (const bool json : {false, true}) cases.push_back({dir, stem, json});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Specs, CertifyPin, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<CertifyCase>& param) {
      return std::string(param.param.stem) +
             (param.param.json ? "_json" : "_text");
    });

TEST(CertifyPinCoverage, EverySpecIsPinned) {
  // A spec added to either directory must get a pin as well.
  std::vector<std::string> on_disk;
  for (const char* dir : {kExamples, kFixtures}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(SC_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".scspec") {
        on_disk.push_back(std::string(dir) + "/" +
                          entry.path().stem().string());
      }
    }
  }
  std::vector<std::string> pinned;
  for (const auto& [dir, stem] : kSpecs) {
    pinned.push_back(std::string(dir) + "/" + stem);
  }
  std::sort(on_disk.begin(), on_disk.end());
  std::sort(pinned.begin(), pinned.end());
  EXPECT_EQ(on_disk, pinned);
}

}  // namespace
}  // namespace streamcalc::cli
