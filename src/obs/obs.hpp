// Observability umbrella: compile-time gate + instrumentation macros.
//
// The paper's analysis hinges on knowing where time and capacity go across
// heterogeneous pipeline stages; this subsystem gives the reproduction the
// same visibility into its *own* hot paths — which curve operations
// dominate, which kernels they dispatch to, how the event loop and the
// daemon spend their time (DESIGN.md §10).
//
// Three layers, smallest first:
//
//   * metrics.hpp — process-global registry of counters / gauges /
//     log-scale histograms, exported as one JSON block (`--stats`, bench
//     `--json` emitters).
//   * trace.hpp   — RAII `Span` + a bounded thread-safe ring buffer of
//     completed spans, exported as chrome://tracing JSON (`--trace <file>`).
//   * sink.hpp    — test hook: a registered Sink observes every completed
//     span and metric update, so tests and benches can assert on
//     instrumentation ("parallel convolve issued N subtasks").
//
// Cost model, from cheapest to most expensive configuration:
//
//   1. Compiled out (CMake -DSTREAMCALC_OBS=OFF, macro
//      STREAMCALC_OBS_DISABLED): every SC_OBS_* macro expands to nothing.
//      Zero overhead, verified by bench/micro_obs.
//   2. Runtime off (STREAMCALC_OBS=off / Context::obs == false): each site
//      is one relaxed atomic load and a branch.
//   3. Metrics on (default): counters are single relaxed atomic adds;
//      spans additionally check whether a tracer or sink wants them.
//   4. Tracing on (--trace/--stats, Tracer::start()): spans take two
//      steady_clock stamps and one short critical section on completion.
//
// Instrumented subsystems: min-plus convolve/deconvolve, the DES event
// loop, ReplicationRunner replications, the serve request path, and the
// nclint/certify pre/post-flight passes.
#pragma once

#if defined(STREAMCALC_OBS_DISABLED)
#define SC_OBS_ENABLED 0
#else
#define SC_OBS_ENABLED 1
#endif

#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

#define SC_OBS_CONCAT_IMPL(a, b) a##b
#define SC_OBS_CONCAT(a, b) SC_OBS_CONCAT_IMPL(a, b)

#if SC_OBS_ENABLED

/// Opens a scoped span; closes (and records) when the scope exits.
/// `category` and `name` must be string literals (stored by pointer).
#define SC_OBS_SPAN(category, name)                                        \
  const ::streamcalc::obs::Span SC_OBS_CONCAT(sc_obs_span_, __LINE__) {    \
    category, name                                                         \
  }

/// Adds `delta` to the named process-global counter. The registry lookup
/// happens once per site (magic static); the steady state is one relaxed
/// atomic add.
#define SC_OBS_COUNT(metric, delta)                                        \
  do {                                                                     \
    if (::streamcalc::obs::enabled()) {                                    \
      static ::streamcalc::obs::Counter& SC_OBS_CONCAT(sc_obs_ctr_,        \
                                                       __LINE__) =         \
          ::streamcalc::obs::Registry::global().counter(metric);           \
      SC_OBS_CONCAT(sc_obs_ctr_, __LINE__)                                 \
          .add(static_cast<std::uint64_t>(delta));                         \
      ::streamcalc::obs::notify_metric(metric,                             \
                                       static_cast<double>(delta));        \
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

#else  // !SC_OBS_ENABLED — instrumentation compiled out entirely.

// The value expressions are consumed unevaluated (sizeof) so helper
// locals feeding instrumentation do not become unused-variable warnings
// in the compiled-out configuration.
#define SC_OBS_SPAN(category, name) \
  do {                              \
  } while (0)
#define SC_OBS_COUNT(metric, delta)           \
  do {                                        \
    (void)sizeof(delta); /* unevaluated */    \
  } while (0)
#define SC_OBS_GAUGE(metric, value)           \
  do {                                        \
    (void)sizeof(value); /* unevaluated */    \
  } while (0)
#define SC_OBS_OBSERVE(metric, value)         \
  do {                                        \
    (void)sizeof(value); /* unevaluated */    \
  } while (0)

#endif  // SC_OBS_ENABLED
