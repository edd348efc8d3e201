// The max-plus recurrence behind simulate() and simulate_dag(), exposed so
// tests can run it directly on any DagSpec: simulate() hands it the
// chain's one-path DAG (DagSpec::chain), and it accepts the rate-profile
// and on/off fields on any DAG (simulate_dag() rejects those at its own
// entry). A finite queue_capacity takes the tandem-with-blocking
// recursion, unlimited queues the round loop (recurrence.cpp). The tests
// hold it to the coroutine DES in tests/support/des bit for bit.
#pragma once

#include <cstddef>

#include "netcalc/dag.hpp"
#include "streamsim/pipeline_sim.hpp"

namespace streamcalc::streamsim::detail {

/// Source packets the recurrence releases per round, and after how many
/// the bounded recursion records what it has (see recurrence.cpp); the
/// round-boundary tests size their runs from it.
inline constexpr std::size_t kRoundPackets = 128;

/// Simulates `dag` fed by `source`; validates as simulate_dag() does but
/// for the chain-only source fields.
SimResult simulate_recurrence(const netcalc::DagSpec& dag,
                              const netcalc::SourceSpec& source,
                              const SimConfig& config);

}  // namespace streamcalc::streamsim::detail
