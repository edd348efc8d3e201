#include "serve/admission.hpp"

#include <algorithm>
#include <utility>

#include "certify/postflight.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/packetizer.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace streamcalc::serve {

namespace {
using minplus::Curve;
using util::Duration;

/// Smallest delay target in a flow set (the binding constraint of the
/// shared-FIFO admission rule).
Duration min_target(const std::vector<FlowSpec>& flows) {
  Duration d = Duration::infinite();
  for (const FlowSpec& f : flows) d = std::min(d, f.delay_target);
  return d;
}

/// Applies the admission rule to an evaluated bound. Shared verbatim by
/// the cached and from-scratch paths so the comparison semantics cannot
/// diverge.
void decide(Decision& d, Duration delay, Duration target) {
  d.ok = true;
  d.delay_bound = delay;
  if (delay <= target) {
    d.admitted = true;
  } else {
    d.admitted = false;
    d.reason = "delay bound exceeds the tightest admitted target";
  }
}

}  // namespace

minplus::Curve AdmissionEngine::aggregate_arrival(
    const std::vector<FlowSpec>& flows, const netcalc::SourceSpec& source) {
  util::DataRate rate;
  util::DataSize burst;
  for (const FlowSpec& f : flows) {
    rate = rate + f.rate;
    burst += f.burst;
  }
  // Sum of token buckets == token bucket of the sums (exact, not a
  // relaxation); the scenario source's packetizer granularity applies to
  // the merged flow. Curves are dimensionless: units unpack exactly here,
  // at the minplus boundary.
  return netcalc::packetize_arrival(
      Curve::affine(rate.in_bytes_per_sec(), burst.in_bytes()),
      source.packet);
}

Decision AdmissionEngine::chain_decision(const ScenarioModel& scenario,
                                         const std::vector<FlowSpec>& flows,
                                         double epsilon) {
  Decision d;
  d.epsilon = epsilon;
  if (flows.empty()) {
    d.ok = true;
    d.admitted = true;
    d.delay_bound = Duration::seconds(0.0);
    return d;
  }
  const Curve alpha = aggregate_arrival(flows, scenario.spec.source);
  // The cached end-to-end beta: PipelineModel's service side depends only
  // on (nodes, source, policy), so the load-time curve is the one a fresh
  // build would produce and this single deviation evaluation IS the
  // from-scratch bound.
  const netcalc::DelayReport report =
      epsilon > 0.0
          ? netcalc::delay_bound(alpha,
                                 scenario.chain_model->service_curve(),
                                 epsilon)
          : netcalc::delay_bound(alpha,
                                 scenario.chain_model->service_curve());
  decide(d, report.value, min_target(flows));
  d.kind = report.kind;
  return d;
}

Decision AdmissionEngine::oracle_chain_decision(
    const ScenarioModel& scenario, const std::vector<FlowSpec>& flows,
    double epsilon) {
  Decision d;
  d.epsilon = epsilon;
  if (flows.empty()) {
    d.ok = true;
    d.admitted = true;
    d.delay_bound = Duration::seconds(0.0);
    return d;
  }
  const netcalc::PipelineModel model = netcalc::PipelineModel::with_arrival(
      scenario.spec.nodes, scenario.spec.source, scenario.spec.policy,
      aggregate_arrival(flows, scenario.spec.source));
  const netcalc::DelayReport report =
      epsilon > 0.0 ? model.delay_bound(epsilon) : model.delay_bound();
  decide(d, report.value, min_target(flows));
  d.kind = report.kind;
  return d;
}

namespace {

/// Resolves a flow's entry-node name to an entry index of the DAG spec
/// (empty name = the first entry). Returns false when no entry targets a
/// node with that name.
bool resolve_entry(const netcalc::DagSpec& dag, const std::string& name,
                   std::size_t& out) {
  if (name.empty()) {
    out = 0;
    return !dag.entries.empty();
  }
  for (std::size_t k = 0; k < dag.entries.size(); ++k) {
    if (dag.nodes[dag.entries[k].to].name == name) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

Decision AdmissionEngine::dag_decision(
    const ScenarioModel& scenario,
    const std::map<std::string, FlowSpec>& flows, bool* certified) {
  Decision d;
  const netcalc::DagSpec& shape = scenario.dag;
  std::vector<std::vector<FlowSpec>> per_entry(shape.entries.size());
  std::vector<std::size_t> flow_head;
  flow_head.reserve(flows.size());
  for (const auto& [id, f] : flows) {
    std::size_t k = 0;
    if (!resolve_entry(shape, f.entry, k)) {
      d.error = "unknown entry node '" + f.entry + "' for flow '" + id + "'";
      return d;
    }
    flow_head.push_back(shape.entries[k].to);
    per_entry[k].push_back(f);
  }
  // Zero where no flow attaches: tenant traffic replaces the spec's
  // nominal source.
  std::vector<Curve> envelopes;
  envelopes.reserve(per_entry.size());
  for (const std::vector<FlowSpec>& entry_flows : per_entry) {
    envelopes.push_back(
        entry_flows.empty()
            ? Curve::zero()
            : aggregate_arrival(entry_flows, scenario.spec.source));
  }
  const netcalc::DagModel model = netcalc::DagModel::with_entry_arrivals(
      shape, scenario.spec.source, scenario.spec.policy,
      std::move(envelopes));
  // One path analysis per decision, shared by every flow and by the
  // strict-mode certification.
  const std::vector<netcalc::DagPathAnalysis> paths =
      model.per_path_analysis();
  const std::vector<Duration> delay_from =
      netcalc::delay_bounds_by_head(paths, shape.nodes.size());
  d.ok = true;
  d.admitted = true;
  Duration worst = Duration::seconds(0.0);
  std::size_t i = 0;
  for (const auto& [id, f] : flows) {
    const Duration delay = delay_from[flow_head[i++]];
    worst = std::max(worst, delay);
    if (!(delay <= f.delay_target)) {
      d.admitted = false;
      d.reason = "delay bound from entry of flow '" + id +
                 "' exceeds its target";
    }
  }
  d.delay_bound = worst;
  if (certified != nullptr) {
    *certified = certify::certify_dag(model, paths).clean();
  }
  return d;
}

AdmissionEngine::AdmissionEngine(std::shared_ptr<Catalog> catalog,
                                 util::Context ctx)
    : catalog_(std::move(catalog)), ctx_(ctx) {
  util::require(catalog_ != nullptr, "AdmissionEngine requires a catalog");
}

std::shared_ptr<AdmissionEngine::Tenant> AdmissionEngine::tenant_for(
    const std::string& name) {
  util::MutexLock lock(mutex_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, std::make_shared<Tenant>()).first;
  }
  return it->second;
}

std::size_t AdmissionEngine::tenant_count() const {
  util::MutexLock lock(mutex_);
  return tenants_.size();
}

Decision AdmissionEngine::admit(const std::string& tenant_name,
                                const std::string& scenario_name,
                                const std::string& flow_id,
                                const FlowSpec& flow, bool certify_strict) {
  SC_OBS_SPAN("serve", "admit");
  const auto snapshot = catalog_->snapshot();
  Decision d;
  d.epoch = snapshot->epoch();
  if (flow_id.empty()) {
    d.error = "admit requires a flow id";
    return d;
  }
  if (!(flow.rate.in_bytes_per_sec() > 0.0) || !flow.rate.is_finite()) {
    d.error = "admit requires a positive finite rate";
    return d;
  }
  if (flow.burst.in_bytes() < 0.0 || !flow.burst.is_finite()) {
    d.error = "admit requires a non-negative finite burst";
    return d;
  }
  if (!(flow.delay_target.in_seconds() > 0.0)) {
    d.error = "admit requires a positive delay target";
    return d;
  }
  if (!(flow.epsilon >= 0.0) || flow.epsilon >= 1.0) {
    d.error = "epsilon must be in [0, 1)";
    return d;
  }

  const std::shared_ptr<Tenant> tenant = tenant_for(tenant_name);
  util::MutexLock lock(tenant->mutex);
  std::string bound_scenario = tenant->scenario;
  if (bound_scenario.empty()) {
    if (scenario_name.empty()) {
      d.error = "first admit for a tenant must name a scenario";
      d.seq = tenant->seq;
      return d;
    }
    bound_scenario = scenario_name;
  } else if (!scenario_name.empty() && scenario_name != bound_scenario) {
    d.error = "tenant is bound to scenario '" + bound_scenario + "'";
    d.seq = tenant->seq;
    return d;
  }
  const ScenarioModel* scenario = snapshot->find(bound_scenario);
  if (scenario == nullptr) {
    d.error = "unknown scenario '" + bound_scenario + "'";
    d.seq = tenant->seq;
    return d;
  }
  if (tenant->flows.count(flow_id) != 0) {
    d.error = "flow '" + flow_id + "' is already admitted";
    d.seq = tenant->seq;
    return d;
  }
  if (!flow.entry.empty() && !scenario->is_dag) {
    d.error = "entry nodes apply only to DAG scenarios";
    d.seq = tenant->seq;
    return d;
  }
  if (flow.epsilon > 0.0 && scenario->is_dag) {
    d.error = "epsilon applies to chain scenarios only";
    d.seq = tenant->seq;
    return d;
  }
  // The shared-FIFO rule bounds every flow by the tenant aggregate, so the
  // statement being admitted against must be one bound; a tenant's flows
  // therefore all share one epsilon, fixed by its first admit.
  if (!tenant->scenario.empty() && flow.epsilon != tenant->epsilon) {
    d.error = "tenant is bound to a different epsilon";
    d.seq = tenant->seq;
    return d;
  }

  // Per-query strict certification: requested explicitly or inherited
  // from the daemon's Context (STREAMCALC_CERTIFY=strict).
  const bool strict =
      certify_strict || ctx_.certify == util::EnforceMode::kStrict;

  // Proof-carrying mode: re-derive and certify every bound of the
  // candidate model with the independent exact-rational checker. A failed
  // certification is an evaluation error, not a rejection — the double
  // bound cannot be trusted either way.
  Decision result;
  bool certified = true;
  if (scenario->is_dag) {
    std::map<std::string, FlowSpec> candidate = tenant->flows;
    candidate.emplace(flow_id, flow);
    result = dag_decision(*scenario, candidate, strict ? &certified : nullptr);
  } else {
    std::vector<FlowSpec> candidate;
    candidate.reserve(tenant->flows.size() + 1);
    for (const auto& [id, f] : tenant->flows) candidate.push_back(f);
    candidate.push_back(flow);
    result = chain_decision(*scenario, candidate, flow.epsilon);
    if (flow.epsilon > 0.0) SC_OBS_COUNT("serve.admit.stochastic", 1);
    if (result.ok && strict) {
      const netcalc::PipelineModel model =
          netcalc::PipelineModel::with_arrival(
              scenario->spec.nodes, scenario->spec.source,
              scenario->spec.policy,
              aggregate_arrival(candidate, scenario->spec.source));
      certified = certify::certify_pipeline(model).clean();
    }
  }
  if (!certified) {
    result = Decision{};
    result.error = "bound failed strict certification";
  }
  result.epoch = snapshot->epoch();
  if (result.ok && result.admitted) {
    tenant->scenario = bound_scenario;
    tenant->epsilon = flow.epsilon;
    tenant->flows.emplace(flow_id, flow);
    ++tenant->seq;
    result.changed = true;
  }
  result.seq = tenant->seq;
  if (result.admitted) {
    SC_OBS_COUNT("serve.admit.accepted", 1);
  } else {
    SC_OBS_COUNT("serve.admit.rejected", 1);
  }
  return result;
}

Decision AdmissionEngine::release(const std::string& tenant_name,
                                  const std::string& flow_id) {
  SC_OBS_SPAN("serve", "release");
  const auto snapshot = catalog_->snapshot();
  Decision d;
  d.epoch = snapshot->epoch();

  const std::shared_ptr<Tenant> tenant = tenant_for(tenant_name);
  util::MutexLock lock(tenant->mutex);
  const auto it = tenant->flows.find(flow_id);
  if (it == tenant->flows.end()) {
    d.error = "flow '" + flow_id + "' is not admitted";
    d.seq = tenant->seq;
    return d;
  }
  tenant->flows.erase(it);
  ++tenant->seq;
  d.ok = true;
  d.changed = true;
  d.seq = tenant->seq;

  // Report the post-release bound.
  const ScenarioModel* scenario = snapshot->find(tenant->scenario);
  if (scenario != nullptr) {
    Decision current;
    if (scenario->is_dag) {
      current = dag_decision(*scenario, tenant->flows);
    } else {
      std::vector<FlowSpec> flows;
      flows.reserve(tenant->flows.size());
      for (const auto& [id, f] : tenant->flows) flows.push_back(f);
      current = chain_decision(*scenario, flows, tenant->epsilon);
    }
    if (current.ok) {
      d.delay_bound = current.delay_bound;
      d.kind = current.kind;
      d.epsilon = current.epsilon;
    }
  }
  return d;
}

Decision AdmissionEngine::query(const std::string& tenant_name,
                                TenantSnapshot& out) {
  SC_OBS_SPAN("serve", "query");
  const auto snapshot = catalog_->snapshot();
  Decision d;
  d.epoch = snapshot->epoch();

  std::shared_ptr<Tenant> tenant;
  {
    util::MutexLock lock(mutex_);
    const auto it = tenants_.find(tenant_name);
    if (it == tenants_.end()) {
      d.error = "unknown tenant '" + tenant_name + "'";
      return d;
    }
    tenant = it->second;
  }
  util::MutexLock lock(tenant->mutex);
  out.scenario = tenant->scenario;
  out.seq = tenant->seq;
  out.epoch = snapshot->epoch();
  out.epsilon = tenant->epsilon;
  out.flows.assign(tenant->flows.begin(), tenant->flows.end());
  out.delay_bound = Duration::seconds(0.0);
  const ScenarioModel* scenario = snapshot->find(tenant->scenario);
  if (scenario != nullptr && !tenant->flows.empty()) {
    Decision current;
    if (scenario->is_dag) {
      current = dag_decision(*scenario, tenant->flows);
    } else {
      std::vector<FlowSpec> flows;
      flows.reserve(tenant->flows.size());
      for (const auto& [id, f] : tenant->flows) flows.push_back(f);
      current = chain_decision(*scenario, flows, tenant->epsilon);
    }
    if (current.ok) out.delay_bound = current.delay_bound;
  }
  d.ok = true;
  d.seq = tenant->seq;
  return d;
}

}  // namespace streamcalc::serve
