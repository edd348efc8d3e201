// Admission-control engine: per-tenant admitted-flow state plus the
// decision procedure the daemon answers queries with.
//
// Model. A tenant binds to one catalog scenario on its first admit. Its
// admitted flows are token buckets (rate, burst) each carrying a delay
// target D. The tenant's aggregate arrival envelope is the token bucket of
// the summed parameters, packetized by the scenario source's packet size
// (sums of leaky buckets are leaky buckets, so this is exact, not a
// relaxation). The admission rule is:
//
//   admit f  <=>  delay_bound(alpha_{S ∪ {f}}, beta) <= min_{g in S∪{f}} D_g
//
// i.e. the shared-FIFO end-to-end delay bound with the candidate included
// must still satisfy every admitted flow's target (each flow's delay is
// bounded by the aggregate's). For chain scenarios beta is the catalog's
// cached end-to-end service curve, so the hot path is a single
// horizontal-deviation evaluation; for DAG scenarios flows attach to a
// named entry node and each decision builds one netcalc::DagModel from
// the flow set's per-entry envelopes (DagModel::with_entry_arrivals), so
// a tenant holds only its flows.
//
// Every decision is EXACTLY what a from-scratch analysis of the same
// tenant set produces (PipelineModel::with_arrival / a DagModel built for
// the same envelopes): same curves through the same kernels, hence the
// same doubles. tests/serve/admission_oracle_test.cpp holds this
// differential property over hundreds of generated scenarios.
//
// Concurrency. The engine serializes operations per tenant (one Mutex per
// tenant) while different tenants proceed in parallel; every applied state
// change increments the tenant's sequence number, which replies carry so a
// concurrent history can be replayed serially and compared
// (tests/serve/concurrency_soak_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netcalc/report.hpp"
#include "serve/catalog.hpp"
#include "util/context.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/units.hpp"

namespace streamcalc::serve {

/// One requested/admitted flow. Quantities carry their units in the type
/// (SC908): the wire protocol unpacks raw numbers exactly once, in
/// server.cpp, and everything behind it is unit-safe.
struct FlowSpec {
  util::DataRate rate;         ///< sustained token-bucket rate
  util::DataSize burst;        ///< bucket depth
  util::Duration delay_target; ///< end-to-end delay target
  std::string entry;           ///< DAG entry node name; empty = first entry
  /// Violation probability the tenant accepts. 0 (the default) demands the
  /// sure worst-case bound — the pre-existing deterministic admission path,
  /// bit for bit. A value in (0, 1) admits against the theta-optimized
  /// Chernoff bound P(delay > bound) <= epsilon instead (chain scenarios
  /// only; all of a tenant's flows must share one epsilon, since the
  /// shared-FIFO rule bounds every flow by the aggregate's tail).
  double epsilon = 0.0;
};

/// Outcome of an admit/release/query operation.
struct Decision {
  bool ok = false;          ///< request was well-formed and evaluated
  bool admitted = false;    ///< admit only: candidate accepted
  util::Duration delay_bound;  ///< bound backing the decision (inf allowed)
  /// What kind of statement `delay_bound` is: a sure worst case, or a
  /// violation-probability bound at `epsilon`.
  netcalc::BoundKind kind = netcalc::BoundKind::kWorstCase;
  double epsilon = 0.0;     ///< violation probability (0 = deterministic)
  std::string error;        ///< when !ok: what was wrong
  std::string reason;       ///< when !admitted: which constraint failed
  std::uint64_t seq = 0;    ///< tenant sequence after this operation
  std::uint64_t epoch = 0;  ///< catalog epoch the decision was made under
  bool changed = false;     ///< state actually changed (seq advanced)
};

/// Snapshot of one tenant's state (query verb).
struct TenantSnapshot {
  std::string scenario;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  double epsilon = 0.0;        ///< tenant's bound epsilon (0 = deterministic)
  util::Duration delay_bound;  ///< current aggregate bound (0 if no flows)
  std::vector<std::pair<std::string, FlowSpec>> flows;  ///< sorted by id
};

class AdmissionEngine {
 public:
  AdmissionEngine(std::shared_ptr<Catalog> catalog, util::Context ctx);

  /// Admission check + commit. `certify_strict` additionally runs the
  /// proof-carrying certification post-flight on the candidate model
  /// (chain and DAG scenarios; an uncertified bound turns the reply into
  /// an error).
  Decision admit(const std::string& tenant, const std::string& scenario,
                 const std::string& flow_id, const FlowSpec& flow,
                 bool certify_strict = false);

  /// Removes a flow. Releasing an unknown flow is an error; releasing the
  /// last flow keeps the tenant bound to its scenario.
  Decision release(const std::string& tenant, const std::string& flow_id);

  /// Current state of a tenant. Error when the tenant is unknown.
  Decision query(const std::string& tenant, TenantSnapshot& out);

  /// Number of tenants with state.
  std::size_t tenant_count() const SC_EXCLUDES(mutex_);

  // --- oracle helpers (shared with the differential tests) ---------------

  /// The aggregate arrival envelope of a flow set under a scenario source:
  /// token bucket of the summed parameters, packetized by source.packet.
  /// This exact function is what both the engine and the from-scratch
  /// oracle evaluate, so the two sides cannot drift.
  static minplus::Curve aggregate_arrival(
      const std::vector<FlowSpec>& flows, const netcalc::SourceSpec& source);

  /// From-scratch chain decision: full PipelineModel::with_arrival over
  /// the flow set. The engine's cached-beta path must agree bit for bit.
  /// `epsilon` > 0 evaluates the stochastic admission rule instead.
  static Decision oracle_chain_decision(const ScenarioModel& scenario,
                                        const std::vector<FlowSpec>& flows,
                                        double epsilon = 0.0);

 private:
  struct Tenant {
    mutable util::Mutex mutex;
    std::string scenario SC_GUARDED_BY(mutex);
    std::map<std::string, FlowSpec> flows SC_GUARDED_BY(mutex);
    /// Bound with the scenario on first admit; every later admit must
    /// carry the same value (0 = deterministic).
    double epsilon SC_GUARDED_BY(mutex) = 0.0;
    std::uint64_t seq SC_GUARDED_BY(mutex) = 0;
  };

  std::shared_ptr<Tenant> tenant_for(const std::string& name)
      SC_EXCLUDES(mutex_);

  /// Chain decision via the cached end-to-end beta. `epsilon` > 0 admits
  /// against the Chernoff bound at that violation probability.
  static Decision chain_decision(const ScenarioModel& scenario,
                                 const std::vector<FlowSpec>& flows,
                                 double epsilon);

  /// DAG decision from one DagModel built for `flows`, with one path
  /// analysis. When `certified` is given, that model and those path rows
  /// also go through the exact checker, and `*certified` reports whether
  /// every bound certified.
  static Decision dag_decision(const ScenarioModel& scenario,
                               const std::map<std::string, FlowSpec>& flows,
                               bool* certified = nullptr);

  std::shared_ptr<Catalog> catalog_;
  util::Context ctx_;
  mutable util::Mutex mutex_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_
      SC_GUARDED_BY(mutex_);
};

}  // namespace streamcalc::serve
