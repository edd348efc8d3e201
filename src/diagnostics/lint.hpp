// nclint: static analysis passes over network-calculus models.
//
// Every pass runs *before* numeric evaluation and costs O(nodes + edges) —
// no curve algebra — so it is cheap enough to run unconditionally as a
// pre-flight check in every driver. The passes catch the model-level
// mistakes that otherwise surface as infinite bounds, non-convergent
// closures, or exceptions thrown deep inside the curve kernels:
//
//   * structural validity (NC0xx): node/source specs a build would reject,
//     plus non-causal latency overrides a build would only reject deep
//     inside Curve::rate_latency;
//   * stability (NC1xx): the paper's rho < 1 condition, checked per node
//     with the volume-normalization and upstream-clipping recurrence of
//     netcalc/load.hpp, which the models and the stability certificate
//     share;
//   * topology (NC3xx): flow conservation at fan-out, cycles, nodes that
//     receive no flow (which crash the DAG builder), vanishing residual
//     service on shared paths;
//   * unit coherence (NC4xx, always info): magnitudes that suggest a
//     bytes-vs-MiB or per-second-vs-per-cycle mixup;
//   * policy sanity (NC5xx): rate-basis choices that make the "guarantee"
//     unsound.
//
// Entry points mirror the two model shapes (chain, DAG); a chain is linted
// as its one-path DAG (netcalc::DagSpec::chain). NC2xx is retired
// (the curve-shape pass had no caller). preflight() wires a report into a
// driver in the Context's lint mode: print findings in warn mode (the
// default), throw in strict mode (STREAMCALC_LINT=strict), do nothing when
// off.
#pragma once

#include <string>
#include <vector>

#include "diagnostics/diagnostic.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "util/context.hpp"

namespace streamcalc::diagnostics {

/// Lints a chain pipeline (the PipelineModel input form): lint_dag on its
/// one-path DAG, or one NC001 error when `nodes` is empty.
LintReport lint_pipeline(const std::vector<netcalc::NodeSpec>& nodes,
                         const netcalc::SourceSpec& source,
                         const netcalc::ModelPolicy& policy = {});

/// Lints a DAG (the DagModel input form).
LintReport lint_dag(const netcalc::DagSpec& dag,
                    const netcalc::SourceSpec& source,
                    const netcalc::ModelPolicy& policy = {});

// --- Pre-flight wiring ----------------------------------------------------

/// Applies the lint mode to a finished report (see diagnostics::enforce):
/// findings go to stderr unless off; strict throws when the report is not
/// clean.
void preflight(const std::string& context, const LintReport& report,
               util::EnforceMode mode);

/// Lint + preflight in one call, in the mode `ctx.lint`.
void preflight_pipeline(const std::string& context,
                        const std::vector<netcalc::NodeSpec>& nodes,
                        const netcalc::SourceSpec& source,
                        const netcalc::ModelPolicy& policy,
                        const util::Context& ctx);
void preflight_dag(const std::string& context, const netcalc::DagSpec& dag,
                   const netcalc::SourceSpec& source,
                   const netcalc::ModelPolicy& policy,
                   const util::Context& ctx);

}  // namespace streamcalc::diagnostics
