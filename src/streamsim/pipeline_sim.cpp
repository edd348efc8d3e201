#include "streamsim/pipeline_sim.hpp"

#include "obs/obs.hpp"
#include "streamsim/detail/engines.hpp"
#include "util/error.hpp"

namespace streamcalc::streamsim {

namespace {

SimResult run(const netcalc::DagSpec& dag, const netcalc::SourceSpec& source,
              const SimConfig& config) {
  SimResult r = detail::simulate_recurrence(dag, source, config);
  SC_OBS_COUNT("streamsim.recurrence.runs", 1);
  return r;
}

}  // namespace

SimResult simulate(const std::vector<netcalc::NodeSpec>& nodes,
                   const netcalc::SourceSpec& source, const SimConfig& config) {
  return run(netcalc::DagSpec::chain(nodes), source, config);
}

SimResult simulate_dag(const netcalc::DagSpec& dag,
                       const netcalc::SourceSpec& source,
                       const SimConfig& config) {
  util::require(config.onoff_users == 0,
                "on/off sources apply to chain simulations only");
  util::require(config.rate_profile.empty(),
                "rate profiles apply to chain simulations only");
  return run(dag, source, config);
}

}  // namespace streamcalc::streamsim
