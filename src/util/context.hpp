// streamcalc::Context — the unified runtime-configuration facade.
//
// One struct owns every knob that used to be a scattered STREAMCALC_* env
// read inside several libraries: fuzz budget, lint/certify enforcement
// modes, and the observability (trace/metrics/stats) settings. Each entry
// point builds it once — from the environment via Context::from_env(),
// then CLI flags set the fields they own — applies its obs switch with
// Context::install(), and passes it explicitly to the subsystem entry
// points (diagnostics::preflight_*, certify::postflight_*,
// serve::AdmissionEngine). No library reads a process-wide Context:
// whatever needs a setting takes it as a parameter.
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
  // --- verification ------------------------------------------------------
  /// Per-property fuzz budget (STREAMCALC_FUZZ_CASES).
  int fuzz_cases = 500;
  /// nclint pre-flight mode (STREAMCALC_LINT; default warn).
  EnforceMode lint = EnforceMode::kWarn;
  /// Bound-certification post-flight mode (STREAMCALC_CERTIFY; default off).
  EnforceMode certify = EnforceMode::kOff;

  // --- observability -----------------------------------------------------
  /// Master runtime switch for spans/metrics (STREAMCALC_OBS; default on),
  /// the only way to turn instrumentation off.
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

  /// Applies `ctx`'s obs switch to the instrumentation runtime. Call
  /// once, early, before the first instrumented work.
  static void install(const Context& ctx);
};

}  // namespace streamcalc::util
