#include "diagnostics/lint.hpp"

#include <cmath>
#include <limits>

#include "netcalc/load.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/units.hpp"

namespace streamcalc::diagnostics {

namespace {

using netcalc::DagEdge;
using netcalc::DagSpec;
using netcalc::Interval;
using netcalc::ModelPolicy;
using netcalc::NodeLoad;
using netcalc::NodeSpec;
using netcalc::RateBasis;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;

// Load thresholds for NC101/NC102. A node at rho in [kNearCritical, 1) is
// stable but its bounds blow up as 1/(1 - rho); worth a heads-up.
constexpr double kNearCritical = 0.95;

// Unit-plausibility thresholds (NC4xx, info only). Generous on purpose:
// these exist to catch a forgotten unit suffix (bytes where MiB was meant,
// a per-cycle count where a per-second rate was meant), not to police
// unusual-but-real hardware.
constexpr double kTinyBlockBytes = 64.0;
constexpr double kHugeBlockBytes = 1024.0 * 1024.0 * 1024.0;  // 1 GiB
constexpr double kTinyRate = 1024.0;                          // 1 KiB/s
constexpr double kHugeRate = 1024.0 * 1024.0 * 1024.0 * 1024.0;  // 1 TiB/s
constexpr double kHugeTimeSeconds = 100.0;

const char* basis_name(RateBasis basis) {
  switch (basis) {
    case RateBasis::kMin:
      return "min";
    case RateBasis::kAvg:
      return "avg";
    case RateBasis::kMax:
      return "max";
  }
  return "?";
}

/// NC001/NC002 + NC4xx for one node. Returns false when the spec is
/// structurally invalid (downstream passes that divide by its fields must
/// skip the model).
bool lint_node(const NodeSpec& node, LintReport& report) {
  bool ok = true;
  try {
    node.validate();
  } catch (const util::Error& e) {
    report.add({"NC001", Severity::kError, node.name, e.what(),
                "fix the node measurements; see NodeSpec::validate"});
    ok = false;
  }
  if (node.latency_override < Duration::seconds(0)) {
    report.add({"NC002", Severity::kError, node.name,
                "latency override " +
                    util::format_duration(node.latency_override) +
                    " is negative: a service curve cannot promise output "
                    "before input (non-causal)",
                "set latency >= 0, or omit it to use time_max"});
    ok = false;
  }
  if (!ok) return false;

  // Unit-coherence heuristics. Info only: they must never dirty a valid
  // model (the generator lint-clean property depends on that).
  if (node.block_in.in_bytes() < kTinyBlockBytes ||
      node.block_in.in_bytes() > kHugeBlockBytes) {
    report.add({"NC401", Severity::kInfo, node.name,
                "block_in = " + util::format_size(node.block_in) +
                    " is outside the plausible range [64 B, 1 GiB]",
                "check the unit suffix (B vs KiB vs MiB)"});
  }
  if (node.rate_min().in_bytes_per_sec() < kTinyRate ||
      node.rate_max().in_bytes_per_sec() > kHugeRate) {
    report.add({"NC402", Severity::kInfo, node.name,
                "service rate range " + util::format_rate(node.rate_min()) +
                    " .. " + util::format_rate(node.rate_max()) +
                    " is outside the plausible range [1 KiB/s, 1 TiB/s]",
                "check the rate unit (per second, not per cycle or per "
                "block)"});
  }
  if (node.time_max.in_seconds() > kHugeTimeSeconds) {
    report.add({"NC403", Severity::kInfo, node.name,
                "time_max = " + util::format_duration(node.time_max) +
                    " exceeds 100 s per block",
                "check the duration unit (us vs ms vs s)"});
  }
  return true;
}

/// NC003 + NC4xx for the source. Returns false when unusable.
bool lint_source(const SourceSpec& source, LintReport& report) {
  bool ok = true;
  if (!(source.rate > DataRate::bytes_per_sec(0)) ||
      !source.rate.is_finite()) {
    report.add({"NC003", Severity::kError, "source",
                "source rate must be positive and finite",
                "set [source] rate to the sustained input rate"});
    ok = false;
  }
  if (source.burst < DataSize::bytes(0) || !source.burst.is_finite()) {
    report.add({"NC003", Severity::kError, "source",
                "source burst must be non-negative and finite", ""});
    ok = false;
  }
  if (source.job_volume.is_finite() &&
      !(source.job_volume > DataSize::bytes(0))) {
    report.add({"NC003", Severity::kError, "source",
                "finite job volume must be positive", ""});
    ok = false;
  }
  if (ok && (source.rate.in_bytes_per_sec() < kTinyRate ||
             source.rate.in_bytes_per_sec() > kHugeRate)) {
    report.add({"NC402", Severity::kInfo, "source",
                "source rate " + util::format_rate(source.rate) +
                    " is outside the plausible range [1 KiB/s, 1 TiB/s]",
                "check the rate unit"});
  }
  return ok;
}

/// NC501/NC502: rate-basis sanity.
void lint_policy(const ModelPolicy& policy, LintReport& report) {
  if (policy.service_basis == RateBasis::kMax) {
    report.add({"NC501", Severity::kWarning, "policy",
                "service_basis = max builds the guarantee from best-case "
                "rates; the resulting delay/backlog bounds are not "
                "worst-case bounds",
                "use service_basis = min (sound) or avg (the paper's BITW "
                "study)"});
  }
  const auto rank = [](RateBasis b) {
    return b == RateBasis::kMin ? 0 : b == RateBasis::kAvg ? 1 : 2;
  };
  if (rank(policy.max_service_basis) < rank(policy.service_basis)) {
    report.add({"NC502", Severity::kInfo, "policy",
                std::string("max_service_basis = ") +
                    basis_name(policy.max_service_basis) +
                    " lies below service_basis = " +
                    basis_name(policy.service_basis) +
                    ": the ceiling curve can undercut the guarantee",
                "use a max_service_basis at or above the service basis"});
  }
}

/// NC101/NC102 for one node given its sustained (upstream-clipped)
/// normalized arrival rate and its normalized guaranteed rate.
void lint_load(const NodeSpec& node, double sustained_norm, double rate_norm,
               bool finite_job, LintReport& report) {
  if (rate_norm <= 0.0 || !std::isfinite(rate_norm)) return;
  const double rho = sustained_norm / rate_norm;
  if (rho >= 1.0) {
    std::string msg =
        "sustained arrival rate " +
        util::format_rate(DataRate::bytes_per_sec(sustained_norm)) +
        " reaches guaranteed service rate " +
        util::format_rate(DataRate::bytes_per_sec(rate_norm)) +
        " (rho = " + util::format_significant(rho) +
        ", input-normalized): asymptotic delay/backlog bounds are infinite";
    if (finite_job) {
      msg += "; the finite job volume keeps finite-horizon bounds usable";
    }
    report.add({"NC101", Severity::kWarning, node.name, std::move(msg),
                "lower the source rate below the bottleneck, speed up the "
                "stage, or set a finite [source] job volume"});
  } else if (rho >= kNearCritical) {
    report.add({"NC102", Severity::kInfo, node.name,
                "rho = " + util::format_significant(rho) +
                    " is near critical load; bounds grow as 1/(1 - rho)",
                ""});
  }
}

/// NC101/NC102 per load row, in the rows' topological order. NC305 adds
/// the path-level consequence at fan-in nodes: once cross-traffic can
/// absorb the whole service rate, every per-path bound through the node is
/// infinite (the residual [beta - alpha_cross]^+ vanishes). A chain's rows
/// have fan-in 1.
void lint_loads(const std::vector<NodeSpec>& nodes,
                const std::vector<NodeLoad>& loads, const SourceSpec& source,
                LintReport& report) {
  const bool finite_job = source.job_volume.is_finite();
  for (const NodeLoad& load : loads) {
    const NodeSpec& node = nodes[load.node];
    lint_load(node, load.arrival.hi, load.rate.lo, finite_job, report);
    if (load.fan_in >= 2 && load.arrival.hi >= load.rate.lo) {
      report.add({"NC305", Severity::kWarning, node.name,
                  "combined cross-traffic at this fan-in absorbs the "
                  "entire guaranteed rate: residual service for each "
                  "joining path vanishes and per-path delay bounds are "
                  "infinite",
                  "reduce upstream load or serve the joining flows from "
                  "separate resources"});
    }
  }
}

}  // namespace

LintReport lint_pipeline(const std::vector<NodeSpec>& nodes,
                         const SourceSpec& source,
                         const ModelPolicy& policy) {
  if (!nodes.empty()) return lint_dag(DagSpec::chain(nodes), source, policy);
  SC_OBS_SPAN("lint", "preflight");
  SC_OBS_COUNT("lint.passes", 1);
  LintReport report;
  report.add({"NC001", Severity::kError, "model", "pipeline has no nodes",
              "declare at least one [node]"});
  return report;
}

LintReport lint_dag(const DagSpec& dag, const SourceSpec& source,
                    const ModelPolicy& policy) {
  SC_OBS_SPAN("lint", "preflight");
  SC_OBS_COUNT("lint.passes", 1);
  LintReport report;
  const std::size_t n = dag.nodes.size();
  if (n == 0) {
    report.add({"NC001", Severity::kError, "model", "DAG has no nodes",
                "declare at least one [node]"});
    return report;
  }
  bool structural_ok = lint_source(source, report);
  for (const NodeSpec& node : dag.nodes) {
    structural_ok &= lint_node(node, report);
  }
  lint_policy(policy, report);

  // Topology shape. Any indexing error makes the graph passes meaningless,
  // so bail out after reporting.
  bool indices_ok = true;
  for (const DagEdge& e : dag.edges) {
    if (e.from >= n || e.to >= n) {
      report.add({"NC301", Severity::kError, "topology",
                  "edge references a node index out of range", ""});
      indices_ok = false;
    } else if (e.from == e.to) {
      report.add({"NC303", Severity::kError, dag.nodes[e.from].name,
                  "self-loop edge", "remove the edge"});
      indices_ok = false;
    }
  }
  for (const DagEdge& e : dag.entries) {
    if (e.to >= n) {
      report.add({"NC301", Severity::kError, "topology",
                  "entry references a node index out of range", ""});
      indices_ok = false;
    }
  }
  if (dag.entries.empty()) {
    report.add({"NC301", Severity::kError, "topology",
                "DAG has no entries: no node is fed by the source",
                "add an 'entry = <node> [fraction]' line"});
    indices_ok = false;
  }
  if (!indices_ok) return report;

  // Flow conservation at fan-out (NC301/NC302) and at the source.
  std::vector<double> out_sum(n, 0.0);
  std::vector<bool> has_out(n, false);
  std::vector<bool> fed(n, false);  // an incoming edge or an entry (NC304)
  for (const DagEdge& e : dag.edges) {
    if (e.fraction <= 0.0 || e.fraction > 1.0) {
      report.add({"NC301", Severity::kError, dag.nodes[e.from].name,
                  "edge fraction " + util::format_significant(e.fraction) +
                      " is outside (0, 1]",
                  "route a positive share of the output, at most all of "
                  "it"});
      structural_ok = false;
    }
    out_sum[e.from] += e.fraction;
    has_out[e.from] = true;
    fed[e.to] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (out_sum[i] > 1.0 + 1e-9) {
      report.add({"NC301", Severity::kError, dag.nodes[i].name,
                  "outgoing edge fractions sum to " +
                      util::format_significant(out_sum[i]) +
                      " > 1: the node would emit more flow than it "
                      "produces",
                  "scale the outgoing fractions to sum to at most 1"});
      structural_ok = false;
    } else if (has_out[i] && out_sum[i] < 1.0 - 1e-9) {
      report.add({"NC302", Severity::kInfo, dag.nodes[i].name,
                  "outgoing edge fractions sum to " +
                      util::format_significant(out_sum[i]) +
                      ": fraction " +
                      util::format_significant(1.0 - out_sum[i]) +
                      " of the output leaves the modeled system",
                  "intentional for filtered/dropped flow; otherwise add "
                  "the missing edge"});
    }
  }
  double entry_sum = 0.0;
  for (const DagEdge& e : dag.entries) {
    if (e.fraction <= 0.0 || e.fraction > 1.0) {
      report.add({"NC301", Severity::kError, "topology",
                  "entry fraction " + util::format_significant(e.fraction) +
                      " is outside (0, 1]",
                  ""});
      structural_ok = false;
    }
    entry_sum += e.fraction;
    fed[e.to] = true;
  }
  if (entry_sum > 1.0 + 1e-9) {
    report.add({"NC301", Severity::kError, "topology",
                "entry fractions sum to " +
                    util::format_significant(entry_sum) +
                    " > 1: more flow enters than the source produces",
                "scale the entry fractions to sum to at most 1"});
    structural_ok = false;
  }

  // Unfed nodes (NC304) from the flags the edge and entry loops set, then
  // cycles (NC303) via the builder's topological_order (Kahn's
  // algorithm), reporting *which* nodes are stuck instead of throwing at
  // the first one as DagSpec::validate() does.
  for (std::size_t i = 0; i < n; ++i) {
    if (!fed[i]) {
      report.add({"NC304", Severity::kError, dag.nodes[i].name,
                  "node is not an entry and has no incoming edges: it "
                  "receives no flow",
                  "add an entry or an edge feeding it, or remove the "
                  "node"});
      structural_ok = false;
    }
  }
  const auto order = dag.topological_order();
  if (order.size() < n) {
    std::vector<bool> placed(n, false);
    for (std::size_t i : order) placed[i] = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!placed[i]) {
        report.add({"NC303", Severity::kError, dag.nodes[i].name,
                    "node lies on a cycle: network calculus over this "
                    "graph requires a DAG",
                    "break the cycle (feedback flows need a different "
                    "model)"});
        structural_ok = false;
      }
    }
  }
  if (!structural_ok) return report;

  // Stability in topological order.
  lint_loads(dag.nodes,
             netcalc::propagate_load(
                 dag, order, policy.service_basis,
                 netcalc::entry_rates(
                     dag.entries,
                     Interval::point(source.rate.in_bytes_per_sec()))),
             source, report);
  return report;
}

void preflight(const std::string& context, const LintReport& report,
               util::EnforceMode mode) {
  enforce(context, report, mode, "model failed lint", "STREAMCALC_LINT");
}

void preflight_pipeline(const std::string& context,
                        const std::vector<NodeSpec>& nodes,
                        const SourceSpec& source, const ModelPolicy& policy,
                        const util::Context& ctx) {
  preflight(context, lint_pipeline(nodes, source, policy), ctx.lint);
}

void preflight_dag(const std::string& context, const DagSpec& dag,
                   const SourceSpec& source, const ModelPolicy& policy,
                   const util::Context& ctx) {
  preflight(context, lint_dag(dag, source, policy), ctx.lint);
}

}  // namespace streamcalc::diagnostics
