#include "streamsim/pipeline_sim.hpp"

#include "obs/obs.hpp"
#include "streamsim/detail/core.hpp"
#include "streamsim/detail/engines.hpp"

namespace streamcalc::streamsim {

double sample_in_range(util::Xoshiro256& rng, double lo, double mid,
                       double hi) {
  return detail::RangeSampler(lo, mid, hi).draw(rng);
}

namespace {

/// The recurrence where it applies and answers, else the DES.
template <typename Recurrence, typename Des>
SimResult pick_engine(const SimConfig& config, Recurrence recurrence,
                      Des des) {
  if (detail::recurrence_applies(config)) {
    if (std::optional<SimResult> r = recurrence()) {
      SC_OBS_COUNT("streamsim.recurrence.runs", 1);
      return std::move(*r);
    }
    SC_OBS_COUNT("streamsim.recurrence.fallbacks", 1);
  }
  return des();
}

}  // namespace

SimResult simulate(const std::vector<netcalc::NodeSpec>& nodes,
                   const netcalc::SourceSpec& source, const SimConfig& config) {
  return pick_engine(
      config,
      [&] { return detail::simulate_recurrence(nodes, source, config); },
      [&] { return detail::simulate_des(nodes, source, config); });
}

SimResult simulate_dag(const netcalc::DagSpec& dag,
                       const netcalc::SourceSpec& source,
                       const SimConfig& config) {
  return pick_engine(
      config,
      [&] { return detail::simulate_dag_recurrence(dag, source, config); },
      [&] { return detail::simulate_dag_des(dag, source, config); });
}

}  // namespace streamcalc::streamsim
