// streamcalc umbrella header: one include for the public API.
//
//   #include "streamcalc.hpp"
//
// pulls in the curve algebra (min-plus / max-plus), the network-calculus
// models (chain pipeline + DAG), the discrete-event cross-check simulator
// with its replication runner, the nclint / certify verification layers,
// the observability layer (spans, metrics, sinks), and the util
// foundations (Context, units, formatting). Applications that only need a
// slice — e.g. just the curve algebra — can keep including the individual
// headers; this header is for examples, tools, and downstream consumers
// that want the whole surface without tracking the internal layout.
//
// Versioning follows the CMake project version; compare against
// STREAMCALC_VERSION_MAJOR / _MINOR for source-level feature checks.
#pragma once

#define STREAMCALC_VERSION_MAJOR 1
#define STREAMCALC_VERSION_MINOR 0

// Foundations: units/literals, error types, formatting, run configuration.
#include "util/context.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/units.hpp"

// Observability: SC_OBS_* macros, Tracer/Span, metrics Registry, Sink.
#include "obs/obs.hpp"

// Curve algebra.
#include "maxplus/operations.hpp"
#include "minplus/curve.hpp"
#include "minplus/deviation.hpp"
#include "minplus/inverse.hpp"
#include "minplus/operations.hpp"

// Network-calculus models and bounds.
#include "netcalc/bounds.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/packetizer.hpp"
#include "netcalc/pipeline.hpp"
#include "netcalc/shaper.hpp"
#include "netcalc/trace.hpp"

// Verification: pre-flight lint and post-flight bound certification.
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"

// Simulation cross-check: DES pipeline simulator + replication summaries.
#include "streamsim/pipeline_sim.hpp"
#include "streamsim/replication.hpp"

// Analytic queueing reference model.
#include "queueing/mm1.hpp"
