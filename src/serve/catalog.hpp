// Scenario catalog for the admission-control daemon: named pipeline/DAG
// models loaded at startup, swapped wholesale on reload.
//
// A CatalogSnapshot is immutable once built. Chain scenarios precompute
// their end-to-end service curve at load time — the hot admission path is
// then one horizontal-deviation evaluation of (fresh aggregate arrival,
// cached beta), which is what makes thousands of admits per second
// feasible (DESIGN.md §12). The cached beta is *exactly* the curve a
// from-scratch PipelineModel would derive, because the service side of the
// model depends only on (nodes, source, policy), never on the queried
// arrival envelope; the differential admission oracle
// (tests/serve/admission_oracle_test.cpp) pins that equality over
// generated scenarios.
//
// Reloads are epoch/snapshot based, never stop-the-world: the server
// builds a complete new snapshot off to the side (parsing and curve
// precomputation included), then atomically publishes it. Requests hold a
// shared_ptr to whichever snapshot was current when they started, so
// in-flight analysis keeps consistent curves while new requests see the
// new epoch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli/spec.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/pipeline.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::serve {

/// One named scenario, with the load-time precomputation the admission
/// hot path relies on.
struct ScenarioModel {
  std::string name;
  cli::Spec spec;
  bool is_dag = false;
  /// Chain scenarios only: the base model built from the spec's own
  /// source. Its service_curve() is the cached end-to-end beta; per-node
  /// curves feed the `query` verb.
  std::shared_ptr<const netcalc::PipelineModel> chain_model;
  /// DAG scenarios only: the validated topology each decision's model is
  /// built on.
  netcalc::DagSpec dag;
};

/// Immutable set of scenarios plus the epoch it was published under.
class CatalogSnapshot {
 public:
  CatalogSnapshot(std::uint64_t epoch,
                  std::vector<ScenarioModel> scenarios);

  std::uint64_t epoch() const { return epoch_; }
  /// nullptr when no scenario has that name.
  const ScenarioModel* find(const std::string& name) const;
  std::size_t size() const { return scenarios_.size(); }

 private:
  std::uint64_t epoch_;
  std::map<std::string, ScenarioModel> scenarios_;
};

/// Builds a snapshot from already-parsed specs (tests inject generated
/// scenarios this way, no files involved). Validates each spec by
/// building its model; throws PreconditionError naming the scenario on
/// failure.
std::shared_ptr<const CatalogSnapshot> make_snapshot(
    std::uint64_t epoch,
    const std::vector<std::pair<std::string, cli::Spec>>& specs);

/// Parses every path into a (stem-named) scenario and builds a snapshot.
/// Throws PreconditionError on unreadable files, parse errors, or
/// duplicate names.
std::shared_ptr<const CatalogSnapshot> load_snapshot(
    std::uint64_t epoch, const std::vector<std::string>& spec_paths);

/// The mutable holder the server reads through: publish() swaps the
/// current snapshot atomically (epoch monotonically increasing);
/// snapshot() hands out the current one. Thread-safe.
class Catalog {
 public:
  explicit Catalog(std::shared_ptr<const CatalogSnapshot> initial);

  std::shared_ptr<const CatalogSnapshot> snapshot() const
      SC_EXCLUDES(mutex_);
  std::uint64_t epoch() const SC_EXCLUDES(mutex_);

  /// Publishes `next` as the current snapshot. Requires a strictly newer
  /// epoch (throws PreconditionError otherwise).
  void publish(std::shared_ptr<const CatalogSnapshot> next)
      SC_EXCLUDES(mutex_);

  /// Reloads from the paths the initial snapshot remembers is not stored
  /// here: the server owns its spec-path list and calls load_snapshot +
  /// publish itself, keeping the catalog a dumb swap point.

 private:
  mutable util::Mutex mutex_;
  std::shared_ptr<const CatalogSnapshot> current_ SC_GUARDED_BY(mutex_);
};

}  // namespace streamcalc::serve
