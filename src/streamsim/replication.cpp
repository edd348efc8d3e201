#include "streamsim/replication.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace streamcalc::streamsim {

namespace {

/// Two-sided Student-t critical values at 95% for df = 1..30; the normal
/// quantile beyond. Index df - 1.
constexpr double kT95[30] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};

double t95(int df) {
  if (df < 1) return 0.0;
  if (df <= 30) return kT95[df - 1];
  return 1.960;
}

}  // namespace

SummaryStat summarize(const std::vector<double>& samples) {
  SummaryStat s;
  if (samples.empty()) return s;
  const auto n = static_cast<double>(samples.size());
  double sum = 0.0;
  s.min = samples.front();
  s.max = samples.front();
  for (const double v : samples) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / n;
  if (samples.size() > 1) {
    double ss = 0.0;
    for (const double v : samples) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / (n - 1.0));
    s.ci95_half = t95(static_cast<int>(samples.size()) - 1) * s.stddev /
                  std::sqrt(n);
  }
  return s;
}

ReplicationRunner::ReplicationRunner(ReplicationConfig config)
    : config_(config) {
  util::require(config_.replications >= 1,
                "ReplicationRunner requires replications >= 1");
}

ReplicationSummary ReplicationRunner::run(
    const std::vector<netcalc::NodeSpec>& nodes,
    const netcalc::SourceSpec& source, const SimConfig& base) const {
  const auto n = static_cast<std::size_t>(config_.replications);

  // Fixed seed stream: replication i always gets the i-th splitmix output,
  // independent of how replications are scheduled onto threads.
  std::vector<std::uint64_t> seeds(n);
  util::SplitMix64 sm(config_.base_seed);
  for (std::uint64_t& seed : seeds) seed = sm.next();

  std::vector<SimResult> results(n);
  util::parallel_for(n, config_.threads, [&](std::size_t i) {
    SC_OBS_SPAN("sim", "replication");
    SimConfig cfg = base;
    cfg.seed = seeds[i];
    results[i] = simulate(nodes, source, cfg);
    SC_OBS_COUNT("sim.replications", 1);
  });

  // Index-order merge: every accumulation below walks replications
  // 0, 1, ..., n-1, so the summary bytes cannot depend on thread count.
  ReplicationSummary summary;
  summary.replications = config_.replications;
  summary.seeds = std::move(seeds);
  std::vector<double> tput(n), dmin(n), dmean(n), dmax(n), backlog(n),
      packets(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SimResult& r = results[i];
    tput[i] = r.throughput.in_bytes_per_sec();
    dmin[i] = r.min_delay.in_seconds();
    dmean[i] = r.mean_delay.in_seconds();
    dmax[i] = r.max_delay.in_seconds();
    backlog[i] = r.max_backlog.in_bytes();
    packets[i] = static_cast<double>(r.packets_delivered);
  }
  summary.throughput_bytes_per_sec = summarize(tput);
  summary.min_delay_seconds = summarize(dmin);
  summary.mean_delay_seconds = summarize(dmean);
  summary.max_delay_seconds = summarize(dmax);
  summary.max_backlog_bytes = summarize(backlog);
  summary.packets_delivered = summarize(packets);

  // Per-node utilization summaries: every replication simulates the same
  // node sequence.
  std::vector<double> busy(n);
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      busy[i] = results[i].node_stats[j].utilization;
    }
    summary.node_utilization.push_back(summarize(busy));
    summary.node_names.push_back(results.front().node_stats[j].name);
  }
  summary.worst_delay = util::Duration::seconds(summary.max_delay_seconds.max);
  summary.worst_backlog =
      util::DataSize::bytes(summary.max_backlog_bytes.max);
  summary.results = std::move(results);
  return summary;
}

}  // namespace streamcalc::streamsim
