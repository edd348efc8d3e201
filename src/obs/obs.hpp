// Observability umbrella: the instrumentation macros.
//
// The paper's analysis hinges on knowing where time and capacity go across
// heterogeneous pipeline stages; this subsystem gives the reproduction the
// same visibility into its *own* hot paths — which curve operations
// dominate, which kernels they dispatch to, how the event loop and the
// daemon spend their time (DESIGN.md §10).
//
// Two layers, each with one way to read it:
//
//   * metrics.hpp — process-global registry of counters / gauges /
//     log-scale histograms, exported as one JSON block (`--stats`, bench
//     `--json` emitters). Tests read counter deltas from
//     Registry::global().
//   * trace.hpp   — RAII `Span` + a bounded thread-safe ring buffer of
//     completed spans, exported as chrome://tracing JSON (`--trace <file>`).
//     Tests start Tracer::global() and count snapshot() records.
//
// Cost model, from cheapest to most expensive configuration:
//
//   1. Runtime off (STREAMCALC_OBS=off / Context::obs == false): a
//      counter, gauge or histogram site is a call to obs::enabled() (one
//      relaxed load) and a never-taken branch.
//   2. Metrics on (default): a counter adds one relaxed atomic add to
//      that. A span, in this and the previous configuration, is dormant:
//      its out-of-line constructor loads the tracer flag (one relaxed
//      load) and returns, and its destructor tests one member.
//   3. Tracing on (--trace/--stats, Tracer::start()): spans take two
//      steady_clock stamps and one short critical section on completion.
//
// Instrumented subsystems: min-plus convolve/deconvolve, the DES event
// loop, ReplicationRunner replications, the serve request path, and the
// nclint/certify pre/post-flight passes.
#pragma once

#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "obs/trace.hpp"

#define SC_OBS_CONCAT_IMPL(a, b) a##b
#define SC_OBS_CONCAT(a, b) SC_OBS_CONCAT_IMPL(a, b)

/// Opens a scoped span; closes (and records) when the scope exits.
/// `category` and `name` must be string literals (stored by pointer).
#define SC_OBS_SPAN(category, name)                                        \
  const ::streamcalc::obs::Span SC_OBS_CONCAT(sc_obs_span_, __LINE__) {    \
    category, name                                                         \
  }

/// Adds `delta` to the named process-global counter. The registry lookup
/// happens once per site (magic static), so `metric` must be one name per
/// site — a string literal, never a runtime choice between names; the
/// steady state is one relaxed atomic add. The same holds for
/// SC_OBS_GAUGE and SC_OBS_OBSERVE.
#define SC_OBS_COUNT(metric, delta)                                        \
  do {                                                                     \
    if (::streamcalc::obs::enabled()) {                                    \
      static ::streamcalc::obs::Counter& SC_OBS_CONCAT(sc_obs_ctr_,        \
                                                       __LINE__) =         \
          ::streamcalc::obs::Registry::global().counter(metric);           \
      SC_OBS_CONCAT(sc_obs_ctr_, __LINE__)                                 \
          .add(static_cast<std::uint64_t>(delta));                         \
    }                                                                      \
  } while (0)

/// Sets the named process-global gauge to `value`.
#define SC_OBS_GAUGE(metric, value)                                        \
  do {                                                                     \
    if (::streamcalc::obs::enabled()) {                                    \
      static ::streamcalc::obs::Gauge& SC_OBS_CONCAT(sc_obs_gauge_,        \
                                                     __LINE__) =           \
          ::streamcalc::obs::Registry::global().gauge(metric);             \
      SC_OBS_CONCAT(sc_obs_gauge_, __LINE__)                               \
          .set(static_cast<double>(value));                                \
    }                                                                      \
  } while (0)

/// Records `value` into the named log-scale histogram.
#define SC_OBS_OBSERVE(metric, value)                                      \
  do {                                                                     \
    if (::streamcalc::obs::enabled()) {                                    \
      static ::streamcalc::obs::Histogram& SC_OBS_CONCAT(sc_obs_hist_,     \
                                                         __LINE__) =       \
          ::streamcalc::obs::Registry::global().histogram(metric);         \
      SC_OBS_CONCAT(sc_obs_hist_, __LINE__)                                \
          .observe(static_cast<double>(value));                            \
    }                                                                      \
  } while (0)
