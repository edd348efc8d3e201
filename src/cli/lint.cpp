#include "cli/lint.hpp"

#include <cstdio>
#include <sstream>

#include "diagnostics/lint.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace streamcalc::cli {

using util::json_quote;

diagnostics::LintReport lint_spec(const Spec& spec) {
  if (spec.is_dag()) {
    // Assemble the DagSpec without DagSpec::validate(): the lint passes
    // re-derive every validation failure as a structured diagnostic.
    netcalc::DagSpec dag;
    dag.nodes = spec.nodes;
    dag.edges = spec.edges;
    dag.entries = spec.entries;
    return diagnostics::lint_dag(dag, spec.source, spec.policy);
  }
  return diagnostics::lint_pipeline(spec.nodes, spec.source, spec.policy);
}

diagnostics::LintReport lint_spec_text(std::string_view text) {
  return lint_spec(parse_spec_lenient(text));
}

std::string findings_json(const diagnostics::LintReport& report) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const diagnostics::Diagnostic& d : report.diagnostics()) {
    os << (first ? "" : ",") << "\n   {\"code\": " << json_quote(d.code)
       << ", \"severity\": " << json_quote(to_string(d.severity))
       << ", \"location\": " << json_quote(d.location)
       << ", \"message\": " << json_quote(d.message)
       << ", \"hint\": " << json_quote(d.hint) << "}";
    first = false;
  }
  os << "]";
  return os.str();
}

int run_lint(const std::vector<std::string>& paths, const Options& opts) {
  bool any_parse_failure = false;
  bool any_defects = false;
  std::ostringstream json;
  json << "{\"command\": \"lint\", \"files\": [";
  bool first = true;
  for (const std::string& path : paths) {
    SC_OBS_SPAN("cli", "lint");
    std::string text;
    std::string status;
    diagnostics::LintReport report;
    if (!read_spec_text(path, text)) {
      any_parse_failure = true;
      status = "unreadable";
    } else {
      try {
        report = lint_spec_text(text);
        if (report.clean()) {
          status = "clean";
        } else {
          status = "defects";
          any_defects = true;
        }
      } catch (const util::Error& e) {
        // Syntax-level failure: there is no model to lint.
        std::fprintf(stderr, "%s: error: %s\n", path.c_str(), e.what());
        any_parse_failure = true;
        status = "unparseable";
      }
    }
    if (opts.json) {
      json << (first ? "" : ",") << "\n {\"path\": " << json_quote(path)
           << ", \"status\": " << json_quote(status)
           << ", \"findings\": " << findings_json(report) << "}";
      first = false;
    } else if (status == "clean") {
      std::fputs(report.render(path).c_str(), stdout);
      std::printf("%s: clean (%zu info)\n", path.c_str(),
                  report.count(diagnostics::Severity::kInfo));
    } else if (status == "defects") {
      std::fputs(report.render(path).c_str(), stdout);
    }
  }
  const int code = any_parse_failure ? 1 : (any_defects ? 2 : 0);
  if (opts.json) {
    json << "],\n \"exit_code\": " << code << "}\n";
    std::fputs(json.str().c_str(), stdout);
  }
  return code;
}

}  // namespace streamcalc::cli
