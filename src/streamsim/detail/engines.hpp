// The two engines behind simulate() and simulate_dag(), exposed so tests
// can run each one directly. Both take a DagSpec: simulate() hands them
// the chain's one-path DAG (DagSpec::chain), and they accept the on/off
// and rate-profile fields on any DAG (simulate_dag() rejects those at its
// own entry).
//
// simulate()/simulate_dag() pick the engine themselves: the max-plus
// recurrence when recurrence_applies(config), falling back to the
// coroutine DES when the recurrence reports a same-instant tie it cannot
// order; the DES otherwise. Both engines return bit-identical results
// wherever the recurrence answers.
#pragma once

#include <optional>

#include "netcalc/dag.hpp"
#include "streamsim/pipeline_sim.hpp"

namespace streamcalc::streamsim::detail {

/// True for the configurations the recurrence covers: unlimited queues and
/// no on/off source population.
bool recurrence_applies(const SimConfig& config);

/// Coroutine DES, the reference engine. Covers every configuration.
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
