// Structured diagnostics for the model static analyzer (`nclint`).
//
// A Diagnostic is one finding about a model: a stable code (NCxxx, see the
// registry in diagnostic.cpp and DESIGN.md §8), a severity, the graph
// location it refers to (a node name, "source", "policy", "topology"), a
// human message, and an optional fix-it hint. LintReport collects the
// findings of all analysis passes over one model, keeps them in a stable
// order, and renders them compiler-style:
//
//   model.scspec: warning [NC101] node 'seed_match': sustained arrival rate
//       353.0 MiB/s exceeds guaranteed service rate 176.5 MiB/s (rho = 2.00)
//       hint: lower the source rate below the bottleneck or set a finite job
//
// Severity semantics:
//   kError   — the model cannot be evaluated (build would throw or crash);
//   kWarning — evaluation succeeds but the bounds are degenerate or
//              unsound (infinite delay, unstable node, unsound policy);
//   kInfo    — heuristic observation worth a look (unit plausibility,
//              near-critical load); never fails a strict run.
//
// "Clean" means no findings at kWarning or above; kInfo findings alone
// leave a model clean (they are heuristics, and valid models — including
// every generator-produced scenario — must lint clean).
//
// enforce() is the one place a gate applies its util::EnforceMode to a
// report: the lint pre-flight (diagnostics/lint.hpp) and the certify
// post-flight (certify/postflight.hpp) both end in it.
#pragma once

#include <string>
#include <vector>

#include "util/context.hpp"

namespace streamcalc::diagnostics {

enum class Severity {
  kInfo,
  kWarning,
  kError,
};

const char* to_string(Severity s);

/// One finding. `code` is a stable "NCxxx" identifier from the registry.
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kWarning;
  /// Where in the model graph: a node name, "source", "policy",
  /// "topology", or "model" for whole-model findings.
  std::string location;
  std::string message;
  /// Optional suggested fix; empty when there is no mechanical suggestion.
  std::string hint;
};

/// Short registry title for a code ("unstable node", ...), or nullptr for
/// an unknown code. Golden tests pin the registry.
const char* code_title(const std::string& code);

/// Findings of all lint passes over one model.
class LintReport {
 public:
  void add(Diagnostic d);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  /// No findings at kWarning or above (kInfo findings are allowed).
  bool clean() const;
  bool has_errors() const;
  /// True when any finding carries `code`.
  bool has_code(const std::string& code) const;
  /// Count of findings at exactly `severity`.
  std::size_t count(Severity severity) const;

  /// Appends `other`'s findings (pass composition).
  void merge(const LintReport& other);

  /// Compiler-style rendering, one finding per line (plus hint lines);
  /// `context` prefixes every line (typically the spec file name). Empty
  /// string when there are no findings.
  std::string render(const std::string& context) const;

 private:
  std::vector<Diagnostic> diags_;
};

/// Applies a gate's mode to a finished report. Off does nothing; warn and
/// strict render the findings to stderr (prefixed with `context`); strict
/// then throws PreconditionError "<context>: <failure> with N error(s) and
/// M warning(s) (<knob>=strict)" when the report is not clean.
void enforce(const std::string& context, const LintReport& report,
             util::EnforceMode mode, const std::string& failure,
             const std::string& knob);

}  // namespace streamcalc::diagnostics
