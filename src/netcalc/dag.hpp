// Network calculus over directed acyclic graphs of stages (paper,
// Section 4: "streaming data applications are often modeled as a chain of
// nodes interconnected into a directed acyclic graph").
//
// DagModel is the one per-node model: a node's output may be split among
// several successors (a *proportional* splitter routing a fixed fraction
// of each emitted block down each edge), and a node may join the flows of
// several predecessors (its arrival curve is the sum of the incoming edge
// envelopes). A chain is its one-path DAG, built in one place
// (DagSpec::chain): PipelineModel holds that DAG's DagModel and adds only
// the chain's end-to-end curves, and the chain entry points of lint, the
// stability certificate and the simulator run their DAG code on it.
// Analysis walks the graph in topological order:
//
//   * the load recurrence (netcalc/load.hpp) gives each node's worst- and
//     best-case input volume and its sustained arrival rate clipped by
//     every upstream guaranteed rate;
//   * each node's normalized service curve carries the paper's job-ratio
//     collection wait b_n / R_alpha_{n-1} (Section 3) when it collects a
//     larger block than what reaches it, and its maximum service curve is
//     scaled by the best-case volume (Section 5);
//   * per-edge arrival envelopes, normalized to pipeline-input bytes,
//     propagate through output bounds and splitter scaling;
//   * per-node delay/backlog bounds come from (sum of incoming envelopes,
//     node service curve);
//   * per-path delay bounds concatenate service curves along the path,
//     using *residual* service [beta - alpha_cross]^+ at nodes shared with
//     cross-traffic from other paths (blind-multiplexing residual);
//   * the end-to-end delay bound is the maximum over source-to-sink paths.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "minplus/curve.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/node.hpp"
#include "util/units.hpp"

namespace streamcalc::netcalc {

/// The flow offered to the first stage.
struct SourceSpec {
  util::DataRate rate;                        ///< sustained input rate
  util::DataSize burst;                       ///< instantaneous burst
  util::DataSize packet = util::DataSize{};   ///< source packetization l_max
  /// Total volume of the job traversing the pipeline. Infinite (the
  /// default) models an endless stream; a finite volume caps the arrival
  /// curve at this value, which keeps the delay/backlog bounds finite even
  /// when the offered rate exceeds the bottleneck — the paper's
  /// "estimates on required queue size for individual nodes as a job
  /// traverses the system" (Section 3).
  util::DataSize job_volume = util::DataSize::infinite();
};

/// Which measured rate feeds each curve family. The sound worst-case choice
/// for the service curve is the minimum measured rate; the paper's BITW
/// study instead derives its service curves from the sustained averages
/// (Table 2's primary columns), so the basis is configurable.
enum class RateBasis { kMin, kAvg, kMax };

/// The measured rate of `node` that `basis` selects (bytes of the node's
/// own input). Every model builder, lint pass and interval certificate
/// reads node rates through this one mapping.
util::DataRate basis_rate(const NodeSpec& node, RateBasis basis);

/// Arrival curve of `source`: a leaky bucket, capped at the job volume
/// when that is finite, then packetized. PipelineModel and DagModel both
/// start from it.
minplus::Curve source_arrival(const SourceSpec& source);

/// Modeling choices that select how NodeSpec measurements become curves.
struct ModelPolicy {
  RateBasis service_basis = RateBasis::kMin;      ///< beta: guarantee
  RateBasis max_service_basis = RateBasis::kMax;  ///< gamma: ceiling
  /// Give gamma the same latency as beta (paper, Section 5: the BITW
  /// maximum service curve is the baseline service curve scaled by the
  /// maximum observed compression). Default: gamma starts at the origin.
  bool max_service_latency = false;
  /// Apply the per-node packetizer adjustments ([beta - l]^+). The paper's
  /// quantitative results collapse the pipeline into a single node and use
  /// the plain rate-latency formulas, so its reproduction benches turn
  /// this off; the ablation bench quantifies the difference.
  bool packetize = true;
};

/// Per-node results from propagating the arrival curve through the graph.
struct NodeAnalysis {
  std::string name;
  Regime load_regime = Regime::kUnderloaded;
  util::DataRate arrival_rate;   ///< sustained arrival (input-normalized)
  util::DataRate service_rate;   ///< guaranteed service (input-normalized)
  util::Duration delay;          ///< per-node delay bound
  util::DataSize backlog;        ///< per-node backlog bound (normalized)
  util::DataSize buffer_bytes;   ///< recommended buffer in local raw bytes
  util::Duration aggregation_wait;  ///< job-collection latency at this node
};


/// A directed edge: `fraction` of node `from`'s output volume flows to
/// node `to`. Fractions out of a node must sum to at most 1 (the
/// remainder, if any, leaves the modeled system).
struct DagEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  double fraction = 1.0;
};

/// A DAG of stages. `entries` lists the nodes fed by the source and the
/// fraction of the source flow each receives (fractions sum to <= 1).
struct DagSpec {
  std::vector<NodeSpec> nodes;
  std::vector<DagEdge> edges;
  std::vector<DagEdge> entries;  ///< `from` ignored; `to` = entry node

  /// The chain `nodes` as its one-path DAG: one entry of fraction 1 into
  /// node 0, and an edge of fraction 1 from each node i to node i + 1.
  /// The only place a chain becomes a DAG; validate() rejects an empty
  /// chain.
  static DagSpec chain(std::vector<NodeSpec> nodes);

  /// Validates shape: indices in range, acyclic, every node reachable from
  /// an entry, fractions in (0, 1] with per-node outgoing sums <= 1
  /// (+eps). Throws PreconditionError. Returns topological_order(),
  /// which the acyclicity check computes anyway.
  std::vector<std::size_t> validate() const;

  /// Node indices in a topological order (entries first).
  std::vector<std::size_t> topological_order() const;

  /// All source-to-sink paths (sequences of node indices). Exponential in
  /// the worst case; intended for the small graphs of application models.
  std::vector<std::vector<std::size_t>> paths() const;
};

/// Per-path results. The curves behind the delay bound are retained so the
/// certification layer (src/certify) can re-derive the bound and audit the
/// residual concatenation.
struct DagPathAnalysis {
  std::vector<std::size_t> nodes;   ///< node indices along the path
  util::Duration delay;             ///< concatenated (residual) delay bound
  /// False when cross-traffic absorbed a shared node's entire service
  /// rate: the delay is infinite and the curves below are meaningless.
  bool residual_valid = true;
  minplus::Curve flow;              ///< envelope of the flow of interest
  minplus::Curve path_service;      ///< concatenated residual service
  std::vector<minplus::Curve> hop_residuals;  ///< per-hop residual curves
};

/// The end-to-end delay folds behind DagModel::delay_bound() and
/// delay_bound(epsilon), for callers that already hold the path rows: the
/// worst path's sure bound, and the worst path's Chernoff bound at
/// `epsilon` in (0, 1), clamped per path by its sure bound.
DelayReport worst_path_delay(const std::vector<DagPathAnalysis>& paths);
DelayReport worst_path_delay(const std::vector<DagPathAnalysis>& paths,
                             double epsilon);

/// Per node of a `node_count`-node DAG: the worst delay over the paths
/// whose head is that node (zero where no path starts), i.e. the bound a
/// flow entering there sees.
std::vector<util::Duration> delay_bounds_by_head(
    const std::vector<DagPathAnalysis>& paths, std::size_t node_count);

struct NodeLoad;
class PipelineModel;

/// Network-calculus model of a DAG pipeline.
class DagModel {
 public:
  /// Entry k is fed `entries[k].fraction` of `source`'s arrival curve and
  /// offers that fraction of its sustained rate.
  DagModel(DagSpec dag, SourceSpec source, ModelPolicy policy = {});

  /// Models `dag` with entry k fed by `entry_envelopes[k]` (bytes over
  /// seconds) instead of the fraction-scaled, splitter-stepped source
  /// arrival curve: the DAG twin of PipelineModel::with_arrival. Entry k
  /// offers the envelope's tail slope as its sustained rate; `source`
  /// still provides the packet granularity of collection waits. Requires
  /// one envelope per entry.
  static DagModel with_entry_arrivals(DagSpec dag, SourceSpec source,
                                      ModelPolicy policy,
                                      std::vector<minplus::Curve>
                                          entry_envelopes);

  const DagSpec& dag() const { return dag_; }
  const SourceSpec& source() const { return source_; }
  const ModelPolicy& policy() const { return policy_; }

  /// Arrival envelope entering node i (sum of incoming edges), normalized.
  const minplus::Curve& node_arrival(std::size_t i) const;
  /// Service curve of node i (normalized to pipeline input).
  const minplus::Curve& node_service(std::size_t i) const;
  /// Maximum service curve of node i (normalized to pipeline input).
  const minplus::Curve& node_max_service(std::size_t i) const;
  /// Output bound of node i (normalized to pipeline input).
  const minplus::Curve& node_output(std::size_t i) const;
  /// Bytes at node i's input per pipeline-input byte, worst case (most
  /// data downstream).
  double volume_in_worst(std::size_t i) const;
  /// Best case (least data downstream).
  double volume_in_best(std::size_t i) const;
  /// Job-collection latency at node i, included in its service latency.
  util::Duration aggregation_wait(std::size_t i) const;

  /// Per-node bounds, one row per `dag().nodes` entry in index order.
  std::vector<NodeAnalysis> per_node_analysis() const;

  /// Delay bound along every source-to-sink path (residual concatenation)
  /// and the end-to-end maximum (sure worst case).
  std::vector<DagPathAnalysis> per_path_analysis() const;
  DelayReport delay_bound() const;

  /// Total backlog bound: sum of per-node bounds (normalized bytes, sure
  /// worst case).
  BacklogReport backlog_bound() const;

  /// Per-packet P(delay > value) <= epsilon: the worst path's Chernoff
  /// bound (flow envelope against the concatenated residual service),
  /// clamped per path by the sure bound. Requires epsilon in (0, 1).
  DelayReport delay_bound(double epsilon) const;

  /// P(total backlog > value) <= epsilon: per-node Chernoff bounds at
  /// epsilon / node-count, union-bounded over the nodes.
  BacklogReport backlog_bound(double epsilon) const;

 private:
  friend class PipelineModel;  // builds its one-path DAG through the below

  /// Entry k is fed `entry_envelopes[k]` at sustained rate `offered[k]`
  /// (bytes/s); both are seeded from `source` when `entry_envelopes` is
  /// empty.
  DagModel(DagSpec dag, SourceSpec source, ModelPolicy policy,
           std::vector<minplus::Curve> entry_envelopes,
           std::vector<double> offered);

  /// Builds every node in `order`, the topological order validate()
  /// returned.
  void build(const std::vector<std::size_t>& order,
             const std::vector<double>& offered);
  /// One step of the topological walk for the node of `load`: merges its
  /// incoming envelopes, builds its normalized service and max-service
  /// curves and output bound, and writes its outgoing edge envelopes.
  void build_node(const NodeLoad& load);
  util::Duration delay_bound_for(std::size_t i) const;
  util::DataSize backlog_bound_for(std::size_t i) const;

  DagSpec dag_;
  SourceSpec source_;
  ModelPolicy policy_;
  std::vector<minplus::Curve> arrival_;      ///< per node
  std::vector<minplus::Curve> service_;      ///< per node (normalized)
  std::vector<minplus::Curve> max_service_;  ///< per node
  std::vector<minplus::Curve> output_;       ///< per node output bound
  std::vector<minplus::Curve> edge_curve_;   ///< per edge envelope
  std::vector<minplus::Curve> entry_curve_;  ///< per entry envelope
  std::vector<double> vol_in_;               ///< worst-case volume at input
  std::vector<double> vol_best_;             ///< best-case volume at input
  std::vector<util::Duration> wait_;         ///< collection wait per node
};

}  // namespace streamcalc::netcalc
