// Shared command-line surface for the streamcalc tool.
//
// Every subcommand (analyze, lint, certify) accepts the same flags with
// the same spelling and the same exit-code convention, parsed here once:
//
//   --stats                append the observability metrics JSON block
//   --trace <file>         write a chrome://tracing JSON trace
//   --json                 machine-readable output instead of text
//   --help, -h             print the shared help table
//
// analyze and stoch additionally take --epsilon <p>: report the
// theta-optimized Chernoff bounds P(delay > d) <= p next to (analyze) or
// instead of only (stoch) the sure worst-case bounds. A missing value is
// a usage error (exit 3); a value outside (0, 1) is rejected by the
// bounds layer (PreconditionError, exit 1) — the flag parser forwards the
// number verbatim so the validation lives in exactly one place.
//
// The serve subcommand additionally takes exactly one of
// --socket <path> (unix domain socket) or --port <n> (TCP on localhost,
// 0 = kernel-assigned); its positional arguments are the catalog specs.
//
// parse_args() starts from util::Context::from_env() and sets the
// Context fields the flags own (--stats, --trace) on top. A usage
// problem (unknown flag, missing value, missing spec path) is a
// ParseResult::error and exits 3; a malformed *environment variable*
// throws PreconditionError and exits 1, matching the pre-existing
// behaviour of the bare tool.
#pragma once

#include <string>
#include <vector>

#include "util/context.hpp"

namespace streamcalc::cli {

/// Parsed command line shared by every subcommand.
struct Options {
  std::string command = "analyze";  ///< analyze|lint|certify|serve|stoch
  std::vector<std::string> paths;   ///< spec files; "-" reads stdin
  bool json = false;                ///< machine-readable output
  bool help = false;                ///< --help / -h was given
  std::string socket_path;          ///< serve: unix socket to bind
  int port = -1;                    ///< serve: TCP port (0 = auto); -1 unset
  /// Violation probability for analyze/stoch. Negative = not given:
  /// analyze stays deterministic, stoch uses its default (1e-6). The
  /// parser does NOT range-check; bad values fail in stochcalc (exit 1).
  double epsilon = -1.0;
  /// Run configuration: environment settings overridden by flags.
  /// `ctx.stats` / `ctx.trace_path` mirror --stats / --trace.
  util::Context ctx;
};

/// Either a usable Options or a usage error (print it + the help table,
/// exit 3).
struct ParseResult {
  Options options;
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Parses argv[1..): an optional leading subcommand (a bare spec path
/// keeps the historical `streamcalc <spec|->` meaning of analyze), then
/// any mix of flags and spec paths. Throws PreconditionError only for
/// malformed STREAMCALC_* environment variables.
ParseResult parse_args(int argc, const char* const* argv);

/// The one help/usage table every subcommand shares.
std::string help_text(const std::string& argv0);

/// Reads the spec file at `path`, or stdin for "-", into `text`. Returns
/// false after printing "error: cannot open '<path>'" to stderr when the
/// file cannot be opened; every subcommand maps that to exit 1.
bool read_spec_text(const std::string& path, std::string& text);

}  // namespace streamcalc::cli
