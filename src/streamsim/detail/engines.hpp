// The two engines behind simulate() and simulate_dag(), exposed so tests
// can run each one directly. Both take a DagSpec: simulate() hands them
// the chain's one-path DAG (DagSpec::chain), and they accept the
// rate-profile field on any DAG, the recurrence the on/off fields too
// (simulate_dag() rejects those at its own entry).
//
// simulate()/simulate_dag() pick the engine themselves: the max-plus
// recurrence when recurrence_applies(config), falling back to the
// coroutine DES when the recurrence reports a same-instant tie it cannot
// order; the DES otherwise. Both engines return bit-identical results
// wherever the recurrence answers. On/off users run on the recurrence
// only, which always answers them on a chain: their releases feed the
// one-path DAG's single entry, where no tie is left to order.
#pragma once

#include <optional>

#include "netcalc/dag.hpp"
#include "streamsim/pipeline_sim.hpp"

namespace streamcalc::streamsim::detail {

/// True for the configurations the recurrence covers: unlimited queues.
bool recurrence_applies(const SimConfig& config);

/// Coroutine DES, the reference engine. Covers every configuration but
/// on/off users, which it rejects.
SimResult simulate_des(const netcalc::DagSpec& dag,
                       const netcalc::SourceSpec& source,
                       const SimConfig& config);

/// Max-plus recurrence. Requires recurrence_applies(config). Returns
/// nullopt when two event streams meet at one instant in a way whose DES
/// order the recurrence cannot reproduce (see recurrence.cpp).
std::optional<SimResult> simulate_recurrence(const netcalc::DagSpec& dag,
                                             const netcalc::SourceSpec& source,
                                             const SimConfig& config);

}  // namespace streamcalc::streamsim::detail
