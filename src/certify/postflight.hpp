// Post-flight certification wiring (the counterpart of nclint's
// pre-flight, DESIGN.md §9).
//
// Pre-flight linting checks the *inputs* of an analysis before any curve
// algebra runs; post-flight certification checks its *outputs* after: it
// emits a proof-carrying certificate for every bound the model produced
// and hands each to the independent exact-rational checker. The mode is
// the Context's `certify` field (STREAMCALC_CERTIFY), applied by
// diagnostics::enforce:
//
//   off     (default) — skip entirely; no exact arithmetic runs;
//   warn              — print NC6xx findings to stderr, continue;
//   strict            — print findings and throw when any bound fails to
//                       certify.
//
// Default-off is deliberate: certification re-evaluates every bound on
// arbitrary-precision rationals. In perfbench's analyze workload (4-core
// Xeon VM) one certify_spec pass costs about 0.9x the whole analyze path
// of the same spec (parse, lint, model, bounds, DES, report), so turning
// it on nearly doubles an analysis — the right default for benches and
// examples is to opt in (CI's certify job and the mutation/property
// suites run strict).
#pragma once

#include <string>
#include <vector>

#include "certify/certificate.hpp"
#include "diagnostics/diagnostic.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/pipeline.hpp"
#include "util/context.hpp"

namespace streamcalc::certify {

/// Emits certificates for every bound a PipelineModel reports: end-to-end
/// delay and backlog (with the per-node service curves as concatenation
/// provenance) plus per-node delay and backlog along the propagated
/// arrival chain.
std::vector<BoundCertificate> emit_pipeline_certificates(
    const netcalc::PipelineModel& model);

/// Emits certificates for a DagModel: per-node delay and backlog, plus a
/// delay certificate per source-to-sink path (with the hop residual
/// curves as provenance). Paths whose residual service vanished are
/// reported by nclint (NC305) and carry no finite bound to certify.
std::vector<BoundCertificate> emit_dag_certificates(
    const netcalc::DagModel& model);

/// Emit + check in one call. `paths` are the rows of
/// model.per_path_analysis(), which callers usually hold already.
diagnostics::LintReport certify_pipeline(const netcalc::PipelineModel& model);
diagnostics::LintReport certify_dag(
    const netcalc::DagModel& model,
    const std::vector<netcalc::DagPathAnalysis>& paths);

/// Applies the certify mode to a finished report (see
/// diagnostics::enforce): findings go to stderr unless off; strict throws
/// when a bound failed to certify.
void postflight(const std::string& context,
                const diagnostics::LintReport& report, util::EnforceMode mode);

/// Certify + postflight in one call, in the mode `ctx.certify`; no-ops
/// (and no exact arithmetic) when it is off.
void postflight_pipeline(const std::string& context,
                         const netcalc::PipelineModel& model,
                         const util::Context& ctx);
void postflight_dag(const std::string& context,
                    const netcalc::DagModel& model,
                    const std::vector<netcalc::DagPathAnalysis>& paths,
                    const util::Context& ctx);

}  // namespace streamcalc::certify
