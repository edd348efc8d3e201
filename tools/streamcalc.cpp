// streamcalc: analyze, lint, or certify a streaming-pipeline spec file.
//
//   streamcalc analyze pipeline.scspec   # network-calculus bounds report
//   streamcalc pipeline.scspec           # same (historical spelling)
//   streamcalc -                         # read the spec from stdin
//   streamcalc lint a.scspec b...        # static analysis only (nclint)
//   streamcalc certify a.scspec b...     # proof-carrying certification
//   streamcalc stoch pipeline.scspec     # Chernoff/MGF stochastic bounds
//   streamcalc analyze --epsilon 1e-6 p  # sure + stochastic bounds
//   streamcalc serve --socket /run/sc.sock specs/*.scspec
//                                        # admission-control daemon
//
// Every subcommand takes the same flags (see src/cli/options.hpp):
// --threads overrides STREAMCALC_THREADS, --stats appends the metrics
// JSON block, --trace <file> writes a chrome://tracing timeline of the
// run's spans (curve operations, lint/certify passes), --json
// switches stdout to machine-readable output, --help prints the table.
//
// `lint` runs the nclint passes (stability, causality, flow conservation,
// unit coherence — see src/diagnostics/lint.hpp). `certify` re-verifies
// every bound the model produces with the independent exact-rational
// checker (src/certify, DESIGN.md §9). Plain analysis runs the lint
// passes as a pre-flight and honours STREAMCALC_CERTIFY as a post-flight.
//
// Exit codes are uniform: 0 clean, 1 unreadable/unparseable input or bad
// environment, 2 defects found, 3 usage error.
//
// The spec format is documented in src/cli/spec.hpp and the examples
// under examples/specs/.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "cli/certify.hpp"
#include "cli/lint.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "obs/obs.hpp"
#include "serve/run.hpp"
#include "util/context.hpp"

namespace {

using streamcalc::cli::Options;
using streamcalc::cli::ParseResult;

/// Flushes the run's observability outputs: the chrome trace file (when
/// --trace was given) and the metrics JSON block (when --stats was).
/// Returns false when the trace file could not be written.
bool emit_observability(const Options& opts) {
  bool ok = true;
  if (!opts.ctx.trace_path.empty()) {
    streamcalc::obs::Tracer& tracer = streamcalc::obs::Tracer::global();
    tracer.stop();
    std::ofstream out(opts.ctx.trace_path);
    if (out) {
      out << tracer.chrome_trace_json();
    } else {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   opts.ctx.trace_path.c_str());
      ok = false;
    }
  }
  if (opts.ctx.stats) {
    std::fputs(streamcalc::obs::Registry::global().json().c_str(), stdout);
    std::fputs("\n", stdout);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  ParseResult parsed;
  try {
    parsed = streamcalc::cli::parse_args(argc, argv);
  } catch (const std::exception& e) {
    // Malformed STREAMCALC_* environment: a configuration error, not a
    // usage error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    std::fputs(streamcalc::cli::help_text(argv[0]).c_str(), stderr);
    return 3;
  }
  const Options& opts = parsed.options;
  if (opts.help) {
    std::fputs(streamcalc::cli::help_text(argv[0]).c_str(), stdout);
    return 0;
  }

  // One Context governs the whole run: thread pool size, lint/certify
  // modes, and the observability switches all resolve from the
  // flags-over-env Options built above.
  streamcalc::util::Context::install(opts.ctx);
  if (!opts.ctx.trace_path.empty() || opts.ctx.stats) {
    streamcalc::obs::Tracer::global().start();
  }

  int code = 0;
  if (opts.command == "lint") {
    code = streamcalc::cli::run_lint(opts.paths, opts);
  } else if (opts.command == "certify") {
    code = streamcalc::cli::run_certify(opts.paths, opts);
  } else if (opts.command == "serve") {
    code = streamcalc::serve::run_serve(opts);
  } else if (opts.command == "stoch") {
    code = streamcalc::cli::run_stoch(opts);
  } else {
    code = streamcalc::cli::run_analyze(opts);
  }

  if (!emit_observability(opts) && code == 0) code = 1;
  return code;
}
