// The two engines behind simulate() and simulate_dag(), exposed so tests
// can run each one directly.
//
// simulate()/simulate_dag() pick the engine themselves: the max-plus
// recurrence when recurrence_applies(config), falling back to the
// coroutine DES when the recurrence reports a same-instant tie it cannot
// order; the DES otherwise. Both engines return bit-identical results
// wherever the recurrence answers.
#pragma once

#include <optional>
#include <vector>

#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"

namespace streamcalc::streamsim::detail {

/// True for the configurations the recurrence covers: unlimited queues and
/// no on/off source population.
bool recurrence_applies(const SimConfig& config);

/// Coroutine DES, the reference engine. Covers every configuration.
SimResult simulate_des(const std::vector<netcalc::NodeSpec>& nodes,
                       const netcalc::SourceSpec& source,
                       const SimConfig& config);
SimResult simulate_dag_des(const netcalc::DagSpec& dag,
                           const netcalc::SourceSpec& source,
                           const SimConfig& config);

/// Max-plus recurrence. Requires recurrence_applies(config). Returns
/// nullopt when two event streams meet at one instant in a way whose DES
/// order the recurrence cannot reproduce (see recurrence.cpp).
std::optional<SimResult> simulate_recurrence(
    const std::vector<netcalc::NodeSpec>& nodes,
    const netcalc::SourceSpec& source, const SimConfig& config);
std::optional<SimResult> simulate_dag_recurrence(
    const netcalc::DagSpec& dag, const netcalc::SourceSpec& source,
    const SimConfig& config);

}  // namespace streamcalc::streamsim::detail
