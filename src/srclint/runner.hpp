// The srclint driver logic: argument parsing, tree walking, baseline
// application, and human/JSON reporting. tools/srclint.cpp is a thin main
// over run_srclint_cli so the exit-code tests can exercise the whole
// contract in-process (the same pattern as cli::run_lint).
//
// Exit codes follow the project convention:
//   0  no findings (after baseline suppression),
//   1  unreadable input path or unreadable/malformed baseline,
//   2  findings,
//   3  usage error.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace streamcalc::srclint {

struct RunOptions {
  /// Files or directories; directories are walked recursively for
  /// .cpp/.hpp sources (hidden directories skipped), in sorted order.
  std::vector<std::string> paths;
  /// Baseline file. Empty means "use ./srclint.baseline when present".
  std::string baseline_path;
  /// Layer declaration file for SC913. Empty means "use ./srclint.layers
  /// when present"; without a layers file SC913 is skipped.
  std::string layers_path;
  /// Graph emission mode: "" (normal scan), "lock-order", or "layers".
  /// Graph mode prints the requested graph instead of findings and exits
  /// 0/1 (the baseline does not apply to graphs).
  std::string graph;
  bool json = false;
  bool list_codes = false;
  bool help = false;
};

struct ParseResult {
  RunOptions options;
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Parses srclint arguments (argv[0] excluded).
ParseResult parse_srclint_args(const std::vector<std::string>& args);

std::string help_text(const std::string& argv0);

/// Scans, reports to `out` (findings + summary, or the JSON document), and
/// sends errors/stale-baseline notes to `err`.
int run_srclint(const RunOptions& options, std::ostream& out,
                std::ostream& err);

/// parse + help/list-codes dispatch + run; usage errors print to `err`
/// and return 3.
int run_srclint_cli(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err);

}  // namespace streamcalc::srclint
