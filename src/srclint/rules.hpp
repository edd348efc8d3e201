// The srclint rule set: lexical checks of the repository's cross-cutting
// source invariants (SC901–SC908, DESIGN.md §13).
//
// Each rule is a pattern over the token stream plus a *scope* (which tree
// roots it applies to) and an *allowlist* (the files that implement the
// very facility the rule protects — util/sync.hpp may spell std::mutex,
// nothing else may). Scopes and allowlists are part of the rule
// definition, not configuration: a deliberate, reviewed exception belongs
// here with a rationale; an unreviewed one belongs in the baseline file
// and the tree ships with that file empty.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "srclint/finding.hpp"

namespace streamcalc::srclint {

/// Runs every rule over one file's contents. `path` should be
/// repo-relative (the CLI passes paths as given); scoping and allowlists
/// match on path segments and suffixes, so absolute paths that contain the
/// repository layout also work.
std::vector<Finding> check_source(const std::string& path,
                                  std::string_view content);

/// True when a decimal floating literal (as spelled in source, suffixes
/// included) is NOT exactly representable in its IEEE-754 type — i.e. an
/// equality comparison against it can never be meant literally. Exposed
/// for the SC904 unit tests.
bool inexact_float_literal(std::string_view literal);

/// A reviewed exemption: rule `code` does not apply to the file `path`
/// (repo-relative), which implements the facility the rule protects.
struct AllowlistEntry {
  std::string_view code;
  std::string_view path;
};

/// Every allowlist entry of the per-file rules, in code order.
std::vector<AllowlistEntry> allowlist();

/// Human-readable registry table for `--list-codes`.
std::string list_codes_text();

}  // namespace streamcalc::srclint
