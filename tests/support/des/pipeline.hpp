// The streamsim pipeline on the coroutine DES: one process per node plus a
// source and a sink, connected by des::Store queues. It is the oracle the
// max-plus recurrence (streamsim::simulate / simulate_dag) is checked
// against bit for bit, on the same Network, JobStep and Recorder. It runs
// no on/off users.
#pragma once

#include "netcalc/dag.hpp"
#include "streamsim/pipeline_sim.hpp"

namespace streamcalc::des {

/// Simulates `dag` fed by `source` on the DES. Validates as
/// streamsim::simulate_dag does, and rejects on/off users.
streamsim::SimResult simulate(const netcalc::DagSpec& dag,
                              const netcalc::SourceSpec& source,
                              const streamsim::SimConfig& config);

}  // namespace streamcalc::des
