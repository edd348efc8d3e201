// `streamcalc lint`: the nclint model analyzer over spec files.
//
// Bridges the spec layer to the diagnostics passes: a spec is parsed
// leniently (syntax errors still throw; semantic validation is left to the
// passes so a broken model yields a full structured report rather than the
// first exception), then linted as a chain or a DAG according to its
// [topology] section.
#pragma once

#include <string>

#include "cli/options.hpp"
#include "cli/spec.hpp"
#include "diagnostics/diagnostic.hpp"

namespace streamcalc::cli {

/// Runs every applicable lint pass over a parsed spec.
diagnostics::LintReport lint_spec(const Spec& spec);

/// Parses `text` leniently and lints it. Syntax errors surface as a
/// PreconditionError (there is no model to analyze); semantic problems
/// come back as diagnostics.
diagnostics::LintReport lint_spec_text(std::string_view text);

/// JSON array literal of a report's findings, shared by the CLI's --json
/// emitters: [{"code", "severity", "location", "message", "hint"}, ...].
std::string findings_json(const diagnostics::LintReport& report);

/// CLI driver for `streamcalc lint <spec>...`: lints each file, prints the
/// findings compiler-style to stdout (or, with opts.json, one JSON object
/// with a per-file findings array), and returns the process exit code.
/// 0 = every file clean (info-level findings allowed); 1 = at least one
/// unreadable or unparseable file (takes precedence — there was no model
/// to analyze); 2 = every file was readable but at least one warning or
/// error was found.
int run_lint(const std::vector<std::string>& paths, const Options& opts);

}  // namespace streamcalc::cli
