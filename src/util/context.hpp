// streamcalc::Context — the unified runtime-configuration facade.
//
// One struct owns every knob that used to be a scattered STREAMCALC_* env
// read inside five different libraries: thread count, fuzz budget,
// lint/certify enforcement modes, and the observability
// (trace/metrics/stats) settings. Each entry point builds it once — from
// the environment via Context::from_env(), then CLI flags override
// individual fields — installs it with Context::install(), and passes it
// explicitly to the subsystem entry points (diagnostics::preflight_*,
// certify::postflight_*, serve::AdmissionEngine).
//
// The one library singleton with no Context parameter, the global thread
// pool, reads Context::active(): the installed context, else one
// from_env() result parsed on the first call and kept for the process.
#pragma once

#include <cstdint>
#include <string>

namespace streamcalc::util {

/// Enforcement level shared by the lint pre-flight and certify
/// post-flight: kOff = skip, kWarn = report to stderr, kStrict = throw on
/// findings.
enum class EnforceMode : std::uint8_t { kOff, kWarn, kStrict };

const char* to_string(EnforceMode m);

struct Context {
  // --- execution ---------------------------------------------------------
  /// Worker threads: 0 = hardware concurrency, 1 = serial (everything
  /// inline), N = that many. Mirrors STREAMCALC_THREADS ("serial" == 1).
  unsigned threads = 0;

  // --- verification ------------------------------------------------------
  /// Per-property fuzz budget (STREAMCALC_FUZZ_CASES).
  int fuzz_cases = 500;
  /// nclint pre-flight mode (STREAMCALC_LINT; default warn).
  EnforceMode lint = EnforceMode::kWarn;
  /// Bound-certification post-flight mode (STREAMCALC_CERTIFY; default off).
  EnforceMode certify = EnforceMode::kOff;

  // --- observability -----------------------------------------------------
  /// Master runtime switch for spans/metrics (STREAMCALC_OBS; default on).
  /// Instrumentation can additionally be compiled out entirely with the
  /// STREAMCALC_OBS=OFF CMake option.
  bool obs = true;
  /// Print the metrics-registry JSON block after the run (`--stats`).
  bool stats = false;
  /// When non-empty, record spans and write a chrome://tracing JSON file
  /// here at the end of the run (`--trace <file>`).
  std::string trace_path;

  /// Builds a Context from the STREAMCALC_* environment variables,
  /// throwing PreconditionError (naming the variable and the accepted
  /// forms) on any malformed value.
  static Context from_env();

  /// The process-wide context: the installed one, else the environment
  /// as parsed by the first call (see file comment).
  static Context active();

  /// Installs `ctx` as the process-wide context and applies its obs
  /// switch to the instrumentation runtime. Call once, early (before the
  /// first use of the global thread pool, which sizes itself from the
  /// active context at first use).
  static void install(const Context& ctx);

  /// `threads` with the hardware-concurrency substitution applied
  /// (always >= 1).
  unsigned resolved_threads() const;

  /// Worker count for a ThreadPool sized from this context (the global
  /// pool): 0 (serial, everything inline) when resolved_threads() <= 1.
  unsigned pool_workers() const;
};

}  // namespace streamcalc::util
