// Network-calculus model of a heterogeneous streaming pipeline
// (paper, Sections 3-4).
//
// A PipelineModel takes the per-stage NodeSpecs (derived from isolated
// measurements, never a full deployment) plus a description of the input
// source, and produces:
//
//   * per-node arrival/service/max-service curves, normalized so every
//     curve is expressed in *pipeline-input bytes* (following Timcheck &
//     Buhler: stages with lossless compression or filtering change the data
//     volume; normalization keeps curves comparable along the chain). A
//     chain is its one-path DAG (DagSpec::chain): these curves, the
//     volumes, the collection waits and the per-node rows come from that
//     DAG's DagModel, which the PipelineModel holds (netcalc/dag.hpp);
//   * the end-to-end service curve (min-plus convolution of the per-node
//     curves — "pay bursts only once") including the paper's job-ratio
//     aggregation latency T_n^tot = T_{n-1}^tot + b_n / R_alpha_{n-1} + T_n
//     at nodes that collect a larger block than their predecessor emits;
//   * delay, backlog, and output-flow bounds, end to end, per node, and for
//     any contiguous subset of stages;
//   * finite-horizon throughput bounds (the MiB/s numbers of the paper's
//     Tables 1 and 3); and
//   * a buffer-sizing plan from the per-node backlog bounds (the paper's
//     future-work application).
//
// The model handles all three load regimes; in the overloaded regime the
// asymptotic bounds are infinite but finite-horizon queue growth is still
// reported (Section 6).
#pragma once

#include <cstddef>
#include <vector>

#include "minplus/curve.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "util/units.hpp"

namespace streamcalc::netcalc {

/// Finite-horizon throughput numbers (Tables 1 and 3 of the paper).
struct ThroughputBounds {
  util::DataRate lower;        ///< beta(h)/h: guaranteed average rate
  util::DataRate upper;        ///< min(alpha, gamma)(h)/h: offered/achievable
  util::DataRate loose_upper;  ///< alpha*(h)/h: output-flow bound (loose)
};

/// Network-calculus model of one pipeline. Immutable after construction;
/// all curves are computed eagerly (model sizes are tiny).
class PipelineModel {
 public:
  /// Models `nodes` fed by `source`. Throws PreconditionError on invalid
  /// specs or an empty node list.
  PipelineModel(std::vector<NodeSpec> nodes, SourceSpec source,
                ModelPolicy policy = {});

  /// Models `nodes` fed by an arbitrary arrival envelope (bytes over
  /// seconds) instead of the leaky-bucket built from `source` — e.g. a
  /// shaped flow, a variable-rate profile, or the minimal arrival curve of
  /// a recorded trace. `source` still provides the rate/packet metadata
  /// used for aggregation-wait estimation and simulation.
  static PipelineModel with_arrival(std::vector<NodeSpec> nodes,
                                    SourceSpec source, ModelPolicy policy,
                                    minplus::Curve arrival) {
    return PipelineModel(std::move(nodes), source, policy,
                         std::move(arrival));
  }

  // --- End-to-end curves (all input-normalized, bytes over seconds) -------

  /// The (packetized) arrival curve alpha constraining the source.
  const minplus::Curve& arrival_curve() const { return arrival_; }
  /// End-to-end service curve beta (worst-case rates, worst-case volumes).
  const minplus::Curve& service_curve() const { return service_; }
  /// End-to-end maximum service curve gamma (best-case rates and volumes).
  const minplus::Curve& max_service_curve() const { return max_service_; }
  /// Output-flow bound alpha* = (alpha (x) gamma) (/) beta.
  const minplus::Curve& output_bound_curve() const { return output_; }
  /// Guaranteed cumulative output alpha (x) beta: every conforming
  /// execution delivers at least this much by time t (beta alone bounds
  /// *capacity*; delivery is also limited by what has arrived).
  const minplus::Curve& guaranteed_output_curve() const {
    return guaranteed_;
  }

  // --- End-to-end bounds ----------------------------------------------------

  /// Maximum virtual delay through the whole pipeline (sure worst case).
  DelayReport delay_bound() const;
  /// Maximum data occupancy resident anywhere in the pipeline
  /// (input-normalized bytes, sure worst case).
  BacklogReport backlog_bound() const;
  /// P(delay > value) <= epsilon: the theta-optimized Chernoff bound of
  /// the model's arrival against its end-to-end service, clamped by the
  /// sure bound (see netcalc/report.hpp). Requires epsilon in (0, 1).
  DelayReport delay_bound(double epsilon) const;
  /// P(backlog > value) <= epsilon.
  BacklogReport backlog_bound(double epsilon) const;
  /// Stochastic bounds for an explicit MGF source (on/off users, Poisson
  /// packets, aggregates) flowing through this pipeline's end-to-end
  /// service, replacing the model's own arrival envelope.
  DelayReport delay_bound(double epsilon,
                          const stochcalc::Arrival& arrival) const;
  BacklogReport backlog_bound(double epsilon,
                              const stochcalc::Arrival& arrival) const;
  /// The summed latency T^tot of the aggregation recursion — the fixed
  /// component of the delay bound.
  util::Duration total_latency() const { return total_latency_; }
  /// Finite-horizon throughput bounds. Requires horizon > 0.
  ThroughputBounds throughput_bounds(util::Duration horizon) const;
  /// Load regime of the end-to-end model.
  Regime load_regime() const;

  // --- Structure and per-node analysis --------------------------------------

  const std::vector<NodeSpec>& nodes() const { return model_.dag().nodes; }
  const SourceSpec& source() const { return model_.source(); }

  /// Index of the stage with the smallest normalized guaranteed rate.
  std::size_t bottleneck() const;

  /// Propagates the arrival curve node by node and reports per-node bounds
  /// (the analysis the paper uses to attribute data occupancy to individual
  /// nodes for buffer allocation).
  std::vector<NodeAnalysis> per_node_analysis() const {
    return model_.per_node_analysis();
  }

  /// Model of the contiguous stage range [first, first + count): the
  /// paper's "analyze any desired subset of the streaming application".
  /// The subset is fed by the propagated output bound of the prefix.
  PipelineModel subrange(std::size_t first, std::size_t count) const;

  /// Per-node normalized service curve (worst case) — exposed for plotting.
  const minplus::Curve& node_service_curve(std::size_t i) const {
    return model_.node_service(i);
  }
  /// Propagated arrival envelope at node i's input (i == nodes().size()
  /// yields the pipeline's output envelope) — exposed for certification.
  const minplus::Curve& node_arrival_curve(std::size_t i) const;
  /// Per-node normalized maximum service curve.
  const minplus::Curve& node_max_service_curve(std::size_t i) const {
    return model_.node_max_service(i);
  }
  /// Data volume seen at a node's input per pipeline-input byte,
  /// worst case (most data downstream).
  double volume_in_worst(std::size_t i) const {
    return model_.volume_in_worst(i);
  }
  /// Best case (least data downstream).
  double volume_in_best(std::size_t i) const {
    return model_.volume_in_best(i);
  }

 private:
  /// Internal: model a chain fed by an arbitrary arrival curve.
  PipelineModel(std::vector<NodeSpec> nodes, SourceSpec source,
                ModelPolicy policy, minplus::Curve arrival);
  void build();

  DagModel model_;  ///< the chain's one-path DAG: every per-node curve
  minplus::Curve arrival_;
  minplus::Curve service_;
  minplus::Curve max_service_;
  minplus::Curve output_;
  minplus::Curve guaranteed_;
  util::Duration total_latency_;
};

}  // namespace streamcalc::netcalc
