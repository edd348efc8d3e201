// Incremental DAG re-analysis: recompute only the bounds downstream of a
// changed flow.
//
// DagModel computes every per-node curve at construction, which is the
// right shape for one-shot CLI analysis but wrong for a long-running
// admission-control service (src/serve): admitting or releasing one tenant
// flow changes the arrival envelope at *one* entry, yet a full rebuild
// re-derives every node — including whole subgraphs the change can never
// reach.
//
// IncrementalDag is a DagModel plus a dirty set. The dirty-set contract:
//
//   * each entry edge carries an independent, caller-settable arrival
//     envelope, seeded from the SourceSpec exactly as DagModel seeds it;
//   * set_entry_envelope(k, env) marks the entry's target node dirty; a
//     segment-identical envelope marks nothing;
//   * refresh() walks the topological order running DagModel's per-node
//     step on dirty nodes only, and a node dirties a successor only when
//     the edge envelope it feeds that successor actually changed — a node
//     whose service absorbs the perturbation stops the wave;
//   * every result accessor refreshes first, then reads DagModel's own
//     per-node, per-path and backlog code.
//
// Because the curves come from the same per-node step over the same
// inputs, a refreshed IncrementalDag and a DagModel built for the same
// envelopes hold identical doubles (tests/netcalc/dag_engine_pin_test.cpp
// and the serve admission oracle pin this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "minplus/curve.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"

namespace streamcalc::netcalc {

/// Mutable, incrementally recomputed DAG analysis.
class IncrementalDag {
 public:
  /// Builds the DagModel of `dag` fed by `source` (so every entry envelope
  /// starts as the fraction-scaled, splitter-stepped source arrival
  /// curve). Validates the spec; throws PreconditionError on shape errors.
  IncrementalDag(DagSpec dag, SourceSpec source, ModelPolicy policy = {});

  const DagSpec& dag() const { return model_.dag(); }
  /// Node index entry `k` feeds.
  std::size_t entry_node(std::size_t k) const;

  /// Replaces entry k's arrival envelope and marks its target node dirty.
  /// A segment-identical envelope is a no-op (no recompute).
  void set_entry_envelope(std::size_t k, minplus::Curve envelope);
  const minplus::Curve& entry_envelope(std::size_t k) const;

  /// Recomputes dirty nodes in topological order; returns how many nodes
  /// were recomputed (0 when already clean). All accessors below refresh
  /// implicitly, so calling this by hand is only needed for assertions on
  /// the recompute count.
  std::size_t refresh();

  /// Total nodes computed over this object's lifetime, construction
  /// included (monotone; the incrementality tests assert it stays well
  /// under nodes x updates).
  std::uint64_t recompute_count() const { return recompute_count_; }

  // --- results (refresh implicitly) --------------------------------------
  /// The refreshed model: per-node curves and every DagModel bound.
  const DagModel& model();
  util::Duration node_delay(std::size_t i);
  util::DataSize node_backlog(std::size_t i);

  /// Per-path delay bounds (residual concatenation) over all
  /// source-to-sink paths, and their maximum.
  std::vector<DagPathAnalysis> per_path_analysis();
  util::Duration delay_bound();
  /// Per node: the max path delay over the paths whose head is that node
  /// (zero where no path starts) — the bound a flow entering there sees.
  std::vector<util::Duration> delay_bounds_by_head();
  /// delay_bounds_by_head()[head].
  util::Duration delay_bound_from(std::size_t head);
  /// Sum of per-node backlog bounds.
  util::DataSize backlog_bound();

 private:
  DagModel model_;
  std::vector<bool> dirty_;
  std::uint64_t recompute_count_ = 0;
};

}  // namespace streamcalc::netcalc
