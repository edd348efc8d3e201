#include "certify/postflight.hpp"

#include <string>
#include <vector>

#include "certify/checker.hpp"
#include "certify/exact.hpp"
#include "obs/obs.hpp"
#include "util/context.hpp"

namespace streamcalc::certify {

namespace {

using diagnostics::LintReport;
using minplus::Curve;

std::string path_context(const netcalc::DagModel& model,
                         const std::vector<std::size_t>& nodes) {
  std::string out = "path ";
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    if (k > 0) out += "->";
    out += model.dag().nodes[nodes[k]].name;
  }
  return out;
}

std::vector<BoundCertificate> emit_pipeline(
    const netcalc::PipelineModel& model, ExactCurveTable& exact) {
  std::vector<BoundCertificate> certs;
  std::vector<Curve> components;
  components.reserve(model.nodes().size());
  for (std::size_t i = 0; i < model.nodes().size(); ++i) {
    components.push_back(model.node_service_curve(i));
  }
  certs.push_back(make_certificate(
      exact, BoundKind::kDelay, "e2e", model.arrival_curve(),
      model.service_curve(), model.delay_bound().value.in_seconds(),
      components));
  certs.push_back(make_certificate(
      exact, BoundKind::kBacklog, "e2e", model.arrival_curve(),
      model.service_curve(), model.backlog_bound().value.in_bytes(),
      components));
  const auto per_node = model.per_node_analysis();
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    const std::string context = "node " + per_node[i].name;
    certs.push_back(make_certificate(
        exact, BoundKind::kDelay, context, model.node_arrival_curve(i),
        model.node_service_curve(i), per_node[i].delay.in_seconds()));
    certs.push_back(make_certificate(
        exact, BoundKind::kBacklog, context, model.node_arrival_curve(i),
        model.node_service_curve(i), per_node[i].backlog.in_bytes()));
  }
  return certs;
}

std::vector<BoundCertificate> emit_dag(
    const netcalc::DagModel& model,
    const std::vector<netcalc::DagPathAnalysis>& paths,
    ExactCurveTable& exact) {
  std::vector<BoundCertificate> certs;
  const auto per_node = model.per_node_analysis();
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    const std::string context = "node " + per_node[i].name;
    certs.push_back(make_certificate(
        exact, BoundKind::kDelay, context, model.node_arrival(i),
        model.node_service(i), per_node[i].delay.in_seconds()));
    certs.push_back(make_certificate(
        exact, BoundKind::kBacklog, context, model.node_arrival(i),
        model.node_service(i), per_node[i].backlog.in_bytes()));
  }
  for (const netcalc::DagPathAnalysis& pa : paths) {
    if (!pa.residual_valid) continue;  // nclint reports NC305 for these
    certs.push_back(make_certificate(
        exact, BoundKind::kDelay, path_context(model, pa.nodes), pa.flow,
        pa.path_service, pa.delay.in_seconds(), pa.hop_residuals));
  }
  return certs;
}

}  // namespace

std::vector<BoundCertificate> emit_pipeline_certificates(
    const netcalc::PipelineModel& model) {
  ExactCurveTable exact;
  return emit_pipeline(model, exact);
}

std::vector<BoundCertificate> emit_dag_certificates(
    const netcalc::DagModel& model) {
  ExactCurveTable exact;
  return emit_dag(model, model.per_path_analysis(), exact);
}

// Emit and check share one conversion table: each distinct curve becomes
// exact once per call, and the checker still recomputes every bound.
LintReport certify_pipeline(const netcalc::PipelineModel& model) {
  SC_OBS_SPAN("certify", "postflight");
  ExactCurveTable exact;
  const auto certs = emit_pipeline(model, exact);
  SC_OBS_COUNT("certify.certificates", certs.size());
  return check_certificates(certs, exact);
}

LintReport certify_dag(const netcalc::DagModel& model,
                       const std::vector<netcalc::DagPathAnalysis>& paths) {
  SC_OBS_SPAN("certify", "postflight");
  ExactCurveTable exact;
  const auto certs = emit_dag(model, paths, exact);
  SC_OBS_COUNT("certify.certificates", certs.size());
  return check_certificates(certs, exact);
}

void postflight(const std::string& context, const LintReport& report,
                util::EnforceMode mode) {
  diagnostics::enforce(context, report, mode, "bound certification failed",
                       "STREAMCALC_CERTIFY");
}

void postflight_pipeline(const std::string& context,
                         const netcalc::PipelineModel& model,
                         const util::Context& ctx) {
  if (ctx.certify == util::EnforceMode::kOff) return;
  postflight(context, certify_pipeline(model), ctx.certify);
}

void postflight_dag(const std::string& context, const netcalc::DagModel& model,
                    const std::vector<netcalc::DagPathAnalysis>& paths,
                    const util::Context& ctx) {
  if (ctx.certify == util::EnforceMode::kOff) return;
  postflight(context, certify_dag(model, paths), ctx.certify);
}

}  // namespace streamcalc::certify
