#include "diagnostics/diagnostic.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "util/error.hpp"

namespace streamcalc::diagnostics {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

namespace {

struct CodeEntry {
  const char* code;
  const char* title;
};

// The diagnostic code registry. Codes are stable identifiers: never reuse
// or renumber one — retire it and allocate the next free number in its
// block. Blocks (see DESIGN.md §8):
//   NC0xx  structural validity (model cannot be built)
//   NC1xx  stability / load regime
//   NC2xx  curve shape (retired with its pass: NC201, NC202)
//   NC3xx  DAG topology and flow conservation
//   NC4xx  unit-coherence heuristics (always kInfo)
//   NC5xx  modeling-policy sanity
//   NC6xx  certification (src/certify: proof-carrying bound checking)
constexpr CodeEntry kRegistry[] = {
    {"NC001", "invalid node specification"},
    {"NC002", "non-causal latency override"},
    {"NC003", "invalid source specification"},
    {"NC101", "unstable node (rho >= 1)"},
    {"NC102", "near-critical node load"},
    {"NC301", "flow conservation violated"},
    {"NC302", "flow mass leaves the modeled system"},
    {"NC303", "topology contains a cycle"},
    {"NC304", "node receives no flow"},
    {"NC305", "residual service vanishes on a shared path"},
    {"NC401", "implausible block size"},
    {"NC402", "implausible rate magnitude"},
    {"NC403", "implausible duration magnitude"},
    {"NC501", "unsound service-rate basis"},
    {"NC502", "max-service basis below service basis"},
    {"NC601", "bound fails certification"},
    {"NC602", "unsound derivation step"},
    {"NC603", "witness does not attain the bound"},
    {"NC604", "parameter box contains instability"},
    {"NC605", "kernel result diverges from certified bound"},
};

}  // namespace

const char* code_title(const std::string& code) {
  for (const CodeEntry& e : kRegistry) {
    if (code == e.code) return e.title;
  }
  return nullptr;
}

void LintReport::add(Diagnostic d) { diags_.push_back(std::move(d)); }

bool LintReport::clean() const {
  return std::none_of(diags_.begin(), diags_.end(), [](const Diagnostic& d) {
    return d.severity != Severity::kInfo;
  });
}

bool LintReport::has_errors() const {
  return std::any_of(diags_.begin(), diags_.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError;
  });
}

bool LintReport::has_code(const std::string& code) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

std::size_t LintReport::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(), [&](const Diagnostic& d) {
        return d.severity == severity;
      }));
}

void LintReport::merge(const LintReport& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string LintReport::render(const std::string& context) const {
  std::ostringstream os;
  for (const Diagnostic& d : diags_) {
    os << context << ": " << to_string(d.severity) << " [" << d.code << "] ";
    if (!d.location.empty() && d.location != "model") {
      os << d.location << ": ";
    }
    os << d.message << "\n";
    if (!d.hint.empty()) {
      os << context << ":   hint: " << d.hint << "\n";
    }
  }
  return os.str();
}

void enforce(const std::string& context, const LintReport& report,
             util::EnforceMode mode, const std::string& failure,
             const std::string& knob) {
  if (mode == util::EnforceMode::kOff) return;
  const std::string rendered = report.render(context);
  if (!rendered.empty()) std::cerr << rendered;
  if (mode == util::EnforceMode::kStrict && !report.clean()) {
    throw util::PreconditionError(
        context + ": " + failure + " with " +
        std::to_string(report.count(Severity::kError)) + " error(s) and " +
        std::to_string(report.count(Severity::kWarning)) + " warning(s) (" +
        knob + "=strict)");
  }
}

}  // namespace streamcalc::diagnostics
