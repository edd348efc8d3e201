#include "netcalc/load.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace streamcalc::netcalc {

std::vector<Interval> entry_rates(const std::vector<DagEdge>& entries,
                                  Interval source_rate) {
  std::vector<Interval> rates;
  rates.reserve(entries.size());
  for (const DagEdge& e : entries) {
    rates.push_back({e.fraction * source_rate.lo, e.fraction * source_rate.hi});
  }
  return rates;
}

std::vector<NodeLoad> propagate_load(
    const DagSpec& dag, const std::vector<std::size_t>& order,
    RateBasis basis, const std::vector<Interval>& entry_rate,
    const std::vector<Interval>& service_scale) {
  const std::vector<NodeSpec>& nodes = dag.nodes;
  util::require(entry_rate.size() == dag.entries.size(),
                "propagate_load requires one rate per entry");
  const std::size_t n = nodes.size();
  std::vector<double> vol_in(n, 0.0);
  std::vector<double> vol_out(n, 0.0);
  std::vector<double> best_in(n, 0.0);
  std::vector<double> best_out(n, 0.0);
  std::vector<Interval> arrival(n, Interval::point(0.0));
  std::vector<Interval> output(n, Interval::point(0.0));
  std::vector<std::size_t> fan_in(n, 0);
  for (std::size_t k = 0; k < dag.entries.size(); ++k) {
    const DagEdge& e = dag.entries[k];
    vol_in[e.to] += e.fraction;
    best_in[e.to] += e.fraction;
    arrival[e.to].lo += entry_rate[k].lo;
    arrival[e.to].hi += entry_rate[k].hi;
    ++fan_in[e.to];
  }
  std::vector<NodeLoad> rows;
  rows.reserve(order.size());
  for (std::size_t i : order) {
    for (const DagEdge& e : dag.edges) {
      if (e.to != i) continue;
      vol_in[i] += e.fraction * vol_out[e.from];
      best_in[i] += e.fraction * best_out[e.from];
      arrival[i].lo += e.fraction * output[e.from].lo;
      arrival[i].hi += e.fraction * output[e.from].hi;
      ++fan_in[i];
    }
    if (vol_in[i] <= 0.0) continue;  // unreachable from the entries
    vol_out[i] = vol_in[i] * nodes[i].volume.max;
    best_out[i] = best_in[i] * nodes[i].volume.min;
    const double base = basis_rate(nodes[i], basis).in_bytes_per_sec();
    const Interval scale =
        service_scale.empty() ? Interval{} : service_scale[i];
    const Interval rate{base * scale.lo / vol_in[i],
                        base * scale.hi / vol_in[i]};
    rows.push_back({i, arrival[i], rate, fan_in[i], vol_in[i], best_in[i]});
    output[i] = {std::min(arrival[i].lo, rate.lo),
                 std::min(arrival[i].hi, rate.hi)};
  }
  return rows;
}

}  // namespace streamcalc::netcalc
