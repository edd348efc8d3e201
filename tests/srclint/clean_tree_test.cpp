// The enforcement test: the repository's own sources scan clean with the
// shipped baseline and the shipped layer declaration. This is the same
// gate CI runs via `tools/srclint src tools bench tests examples`,
// executed in-process so a violation fails the ordinary test suite on
// every developer machine, not just in CI.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "srclint/baseline.hpp"
#include "srclint/finding.hpp"
#include "srclint/rules.hpp"
#include "srclint/runner.hpp"

namespace streamcalc::srclint {
namespace {

std::string repo(const std::string& rel) {
  return std::string(SC_SRCLINT_SOURCE_DIR) + "/" + rel;
}

RunOptions tree_options() {
  RunOptions opts;
  opts.paths = {repo("src"), repo("tools"), repo("bench"), repo("tests"),
                repo("examples")};
  opts.baseline_path = SC_SRCLINT_BASELINE;
  opts.layers_path = SC_SRCLINT_LAYERS;
  return opts;
}

Baseline shipped_baseline() {
  std::ifstream in(SC_SRCLINT_BASELINE);
  EXPECT_TRUE(in.good()) << "missing baseline file " << SC_SRCLINT_BASELINE;
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<std::string> errors;
  const Baseline baseline = parse_baseline(text.str(), &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  return baseline;
}

TEST(SrclintCleanTree, RepositorySourcesHaveZeroFindings) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_srclint(tree_options(), out, err);
  EXPECT_EQ(code, 0) << "srclint found violations:\n"
                     << out.str() << err.str();
  EXPECT_NE(out.str().find(", 0 finding(s)"), std::string::npos) << out.str();
  // Every baseline entry must suppress a real, present finding — a stale
  // key means the violation was fixed and the entry must be deleted.
  EXPECT_EQ(err.str().find("stale"), std::string::npos) << err.str();
}

TEST(SrclintCleanTree, ShippedBaselineEntriesAllCarryReasons) {
  // Policy (DESIGN.md §13-§14): the baseline is the reviewed home for
  // findings that are genuinely right for this repository but wrong to
  // allow in general. Every entry must say *why* on the same line;
  // growing the file is a code-review event, never a convenience.
  const Baseline baseline = shipped_baseline();
  for (const std::string& key : baseline.keys) {
    const auto it = baseline.reasons.find(key);
    ASSERT_TRUE(it != baseline.reasons.end() && !it->second.empty())
        << "baseline entry without a reason: " << key
        << " (append '  # why this exception is sound')";
  }
}

TEST(SrclintCleanTree, ShippedBaselineSuppressionsMatchTheScan) {
  // The run must report exactly as many suppressions as the baseline has
  // keys: fewer means a stale entry, more is impossible by construction.
  const Baseline baseline = shipped_baseline();
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(run_srclint(tree_options(), out, err), 0)
      << out.str() << err.str();
  if (baseline.keys.empty()) {
    EXPECT_EQ(out.str().find("suppressed"), std::string::npos) << out.str();
  } else {
    std::ostringstream want;
    want << baseline.keys.size() << " suppressed";
    EXPECT_NE(out.str().find(want.str()), std::string::npos)
        << "expected '" << want.str() << "' in:\n"
        << out.str() << err.str();
  }
}

TEST(SrclintCleanTree, ScansANontrivialShareOfTheTree) {
  // Guard against the gate silently going blind (a broken tree walk that
  // scans nothing also reports zero findings). The repo has well over a
  // hundred sources; require a conservative floor.
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(run_srclint(tree_options(), out, err), 0)
      << out.str() << err.str();
  const std::string report = out.str();
  const std::size_t pos = report.find(" file(s) scanned");
  ASSERT_NE(pos, std::string::npos) << report;
  const std::size_t start = report.rfind("srclint: ", pos);
  ASSERT_NE(start, std::string::npos) << report;
  const int files = std::stoi(report.substr(start + 9, pos - start - 9));
  EXPECT_GE(files, 100) << report;
}

TEST(SrclintCleanTree, EveryAllowlistEntryStillSuppressesAFinding) {
  // An allowlist entry whose file no longer trips the rule exempts
  // nothing but would hide a future violation there. Scan each
  // allowlisted file's real contents under a sibling path that no entry
  // names: the rule must fire there, and must stay silent on the real
  // path.
  const std::vector<AllowlistEntry> entries = allowlist();
  ASSERT_FALSE(entries.empty());
  for (const AllowlistEntry& e : entries) {
    const std::string path(e.path);
    std::ifstream in(repo(path));
    ASSERT_TRUE(in.good()) << e.code << ": allowlisted file " << path
                           << " does not exist";
    std::ostringstream text;
    text << in.rdbuf();
    const std::size_t slash = path.rfind('/');
    const std::string sibling = path.substr(0, slash + 1) +
                                "allowlist_probe_" + path.substr(slash + 1);
    const auto fires = [&](const std::string& as) {
      for (const Finding& f : check_source(as, text.str())) {
        if (f.code == e.code) return true;
      }
      return false;
    };
    EXPECT_TRUE(fires(sibling))
        << e.code << " does not fire on " << path
        << ": the allowlist entry is stale, delete it";
    EXPECT_FALSE(fires(path)) << e.code << " is not suppressed on " << path;
  }
}

}  // namespace
}  // namespace streamcalc::srclint
