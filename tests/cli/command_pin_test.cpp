// Byte-for-byte pins of `streamcalc certify` and `streamcalc lint` output:
// every shipped example spec and every diagnostics fixture, in text and
// --json. The fixtures include the non-causal specs (lint findings, exit
// code 2) and the overloaded ones (NC101 warnings; infinite bounds that
// certify, with a violated stability verdict). A change to the certifier or
// to the lint passes that is meant to keep its results must leave these
// files unchanged.
//
// Each run happens with the repository root as working directory, so the
// paths in the output are the relative ones a user would type. A text pin
// holds stdout, then stderr after a "--- stderr" line when there is any,
// then a "--- exit code N" line; a JSON pin holds stdout only (the
// document carries its own exit_code).
//
// To regenerate after an intentional output change:
//   STREAMCALC_UPDATE_GOLDEN=1 ctest -R 'CertifyPin|LintPin'
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
#include "cli/lint.hpp"
#include "cli/options.hpp"
#include "util/env.hpp"

#if !defined(SC_SOURCE_DIR) || !defined(SC_REPORT_GOLDEN_DIR)
#error "SC_SOURCE_DIR and SC_REPORT_GOLDEN_DIR must be defined by the build"
#endif

namespace streamcalc::cli {
namespace {

struct PinCase {
  const char* dir;   ///< spec directory, relative to the repository root
  const char* stem;  ///< spec file name without .scspec
  bool json;
};

void PrintTo(const PinCase& c, std::ostream* os) {
  *os << c.dir << "/" << c.stem << (c.json ? " --json" : "");
}

/// A pinned subcommand: its name and the function that runs it.
struct Command {
  const char* name;
  int (*run)(const std::vector<std::string>& paths, const Options& opts);
};

constexpr Command kCertify{"certify", run_certify};
constexpr Command kLint{"lint", run_lint};

/// "<command>_<stem>.<txt|json>" under tests/cli/golden/.
std::string golden_path(const Command& cmd, const PinCase& c) {
  return std::string(SC_REPORT_GOLDEN_DIR) + "/" + cmd.name + "_" + c.stem +
         (c.json ? ".json" : ".txt");
}

/// Runs `streamcalc <command> [--json] <dir>/<stem>.scspec` in process from
/// the repository root and returns its transcript in the pin format.
std::string transcript(const Command& cmd, const PinCase& c) {
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(SC_SOURCE_DIR);
  Options opts;
  opts.command = cmd.name;
  opts.json = c.json;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code =
      cmd.run({std::string(c.dir) + "/" + c.stem + ".scspec"}, opts);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  std::filesystem::current_path(cwd);
  if (c.json) return out;
  std::string result = out;
  if (!err.empty()) result += "--- stderr\n" + err;
  result += "--- exit code " + std::to_string(code) + "\n";
  return result;
}

void expect_matches_golden(const Command& cmd, const PinCase& c) {
  const std::string current = transcript(cmd, c);
  const std::string path = golden_path(cmd, c);

  if (util::env_raw("STREAMCALC_UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << "; run once with STREAMCALC_UPDATE_GOLDEN=1 to create it";
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_EQ(stored.str(), current)
      << "the " << cmd.name << " output drifted from " << path
      << "; if the change is intentional, regenerate with "
         "STREAMCALC_UPDATE_GOLDEN=1 and review the diff";
}

class CertifyPin : public ::testing::TestWithParam<PinCase> {};
class LintPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(CertifyPin, MatchesGoldenFile) {
  expect_matches_golden(kCertify, GetParam());
}

TEST_P(LintPin, MatchesGoldenFile) { expect_matches_golden(kLint, GetParam()); }

constexpr const char* kExamples = "examples/specs";
constexpr const char* kFixtures = "tests/diagnostics/specs";

constexpr std::pair<const char*, const char*> kSpecs[] = {
    {kExamples, "quickstart"},     {kExamples, "bitw"},
    {kExamples, "fork_join"},      {kExamples, "onoff_users"},
    {kFixtures, "blast_base"},     {kFixtures, "blast_noncausal"},
    {kFixtures, "blast_unstable"}, {kFixtures, "bitw_noncausal"},
    {kFixtures, "bitw_unstable"},
};

std::vector<PinCase> all_cases() {
  std::vector<PinCase> cases;
  for (const auto& [dir, stem] : kSpecs) {
    for (const bool json : {false, true}) cases.push_back({dir, stem, json});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<PinCase>& param) {
  return std::string(param.param.stem) +
         (param.param.json ? "_json" : "_text");
}

INSTANTIATE_TEST_SUITE_P(Specs, CertifyPin, ::testing::ValuesIn(all_cases()),
                         case_name);
INSTANTIATE_TEST_SUITE_P(Specs, LintPin, ::testing::ValuesIn(all_cases()),
                         case_name);

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
