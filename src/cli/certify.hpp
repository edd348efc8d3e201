// `streamcalc certify`: proof-carrying re-verification of every bound a
// spec's model produces (DESIGN.md §9).
//
// For each spec file the driver parses strictly, lints (a model with lint
// *errors* cannot be built, let alone certified), builds the chain or DAG
// model, emits a BoundCertificate for every reported bound, and hands each
// to the independent exact-rational checker. It also evaluates the
// interval stability certificate at the spec's own operating point (a
// degenerate parameter box) and prints the verdict — informational: an
// intentionally overloaded spec has infinite bounds that certify just
// fine.
#pragma once

#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/spec.hpp"
#include "diagnostics/diagnostic.hpp"

namespace streamcalc::cli {

/// Emits and checks certificates for every bound of `spec`'s model.
/// Lint errors (the model cannot be built) come back as-is; lint warnings
/// do not block certification.
diagnostics::LintReport certify_spec(const Spec& spec);

/// CLI driver for `streamcalc certify <spec>...` (opts.json switches the
/// stdout rendering to one JSON object with a per-file findings array).
/// Exit codes follow the lint convention: 0 = every bound of every file
/// certified; 1 = at least one unreadable or unparseable file (takes
/// precedence); 2 = every file was readable but at least one bound failed
/// certification (or the model had lint errors blocking the build).
int run_certify(const std::vector<std::string>& paths, const Options& opts);

}  // namespace streamcalc::cli
