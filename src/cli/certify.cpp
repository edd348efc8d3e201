#include "cli/certify.hpp"

#include <cstdio>
#include <sstream>

#include "certify/interval.hpp"
#include "certify/postflight.hpp"
#include "cli/lint.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace streamcalc::cli {

using util::json_quote;

namespace {

certify::IntervalCertificate stability_at_spec(const Spec& spec) {
  const certify::ParamBox box =
      certify::ParamBox::at(spec.source, spec.nodes.size());
  if (spec.is_dag()) {
    return certify::certify_stability_dag(spec.dag(), spec.source,
                                          spec.policy, box);
  }
  return certify::certify_stability(spec.nodes, spec.source, spec.policy,
                                    box);
}

}  // namespace

diagnostics::LintReport certify_spec(const Spec& spec) {
  const diagnostics::LintReport lint = lint_spec(spec);
  if (lint.has_errors()) return lint;
  if (spec.is_dag()) {
    const netcalc::DagModel model(spec.dag(), spec.source, spec.policy);
    return certify::certify_dag(model, model.per_path_analysis());
  }
  const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);
  return certify::certify_pipeline(model);
}

int run_certify(const std::vector<std::string>& paths, const Options& opts) {
  bool any_unreadable = false;
  bool any_defects = false;
  std::ostringstream json;
  json << "{\"command\": \"certify\", \"files\": [";
  bool first = true;
  const auto emit_json = [&](const std::string& path,
                             const std::string& status,
                             const diagnostics::LintReport& report,
                             const std::string& stability) {
    if (!opts.json) return;
    json << (first ? "" : ",") << "\n {\"path\": " << json_quote(path)
         << ", \"status\": " << json_quote(status);
    if (!stability.empty()) {
      json << ", \"stability\": " << json_quote(stability);
    }
    json << ", \"findings\": " << findings_json(report) << "}";
    first = false;
  };
  for (const std::string& path : paths) {
    SC_OBS_SPAN("cli", "certify");
    std::string text;
    if (!read_spec_text(path, text)) {
      any_unreadable = true;
      emit_json(path, "unreadable", {}, "");
      continue;
    }
    Spec spec;
    try {
      spec = parse_spec(text);
    } catch (const util::Error& e) {
      std::fprintf(stderr, "%s: error: %s\n", path.c_str(), e.what());
      any_unreadable = true;
      emit_json(path, "unparseable", {}, "");
      continue;
    }
    diagnostics::LintReport report;
    try {
      report = certify_spec(spec);
    } catch (const util::Error& e) {
      // A model the lint passes let through but the builder rejected:
      // report it as a certification defect, not a parse failure.
      std::fprintf(stderr, "%s: error: %s\n", path.c_str(), e.what());
      any_defects = true;
      emit_json(path, "defects", {}, "");
      continue;
    }
    if (!opts.json) std::fputs(report.render(path).c_str(), stdout);
    if (!report.clean()) any_defects = true;
    if (!opts.json && report.clean()) {
      std::printf("%s: certified\n", path.c_str());
    }
    std::string stability_verdict;
    if (!report.has_errors()) {
      // Informational stability verdict at the spec's own operating point.
      // An overloaded model has infinite bounds that certify as infinite,
      // so instability is context, not a certification failure.
      const certify::IntervalCertificate stability = stability_at_spec(spec);
      if (stability.stable_everywhere) {
        stability_verdict = "stable";
        if (!opts.json) {
          std::printf("%s: stability: utilization < 1 at every node\n",
                      path.c_str());
        }
      } else {
        stability_verdict = "violated: " + stability.violating_face;
        if (!opts.json) {
          std::printf("%s: stability: violated (%s)\n", path.c_str(),
                      stability.violating_face.c_str());
        }
      }
    }
    emit_json(path, report.clean() ? "certified" : "defects", report,
              stability_verdict);
  }
  const int code = any_unreadable ? 1 : (any_defects ? 2 : 0);
  if (opts.json) {
    json << "],\n \"exit_code\": " << code << "}\n";
    std::fputs(json.str().c_str(), stdout);
  }
  return code;
}

}  // namespace streamcalc::cli
