// Multi-replication simulation runner.
//
// A single simulation run gives one sample of the stochastic pipeline's
// behaviour; the paper's simulated delay *ranges* and backlog maxima are
// properties of the sampling distribution. ReplicationRunner runs N
// independently-seeded replications of the pipeline simulator and
// condenses them into mean / spread / 95% confidence-interval summaries
// per metric.
//
// Concurrency & determinism contract:
//   * Replications are independent: each runs its own simulate() call on
//     one thread (the streamsim recurrence stays single-threaded and
//     deterministic per replication).
//   * Seeds derive from the base seed by a fixed splitmix64 stream, so the
//     seed set depends only on (base_seed, replications).
//   * Per-replication results land in index-addressed slots and are merged
//     in index order, so the summary statistics are byte-identical whatever
//     the thread count — including a 1-thread (serial) run.
//
// The runner deliberately holds no mutex-guarded state of its own: the
// only memory shared across threads is the slot vectors, which workers
// touch at disjoint indices handed out by util::parallel_for (one atomic
// claim counter; see DESIGN.md §6). Keep it that way: any future
// cross-replication accumulator must either stay slot-addressed or be
// guarded by an annotated util::Mutex.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netcalc/node.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/units.hpp"

namespace streamcalc::streamsim {

struct ReplicationConfig {
  /// Number of independent replications (>= 1).
  int replications = 8;
  /// Base seed; per-replication seeds are splitmix64(base_seed) outputs in
  /// index order (SimConfig::seed of the base config is ignored).
  std::uint64_t base_seed = 1;
  /// Threads running replications: 0 = hardware concurrency, 1 = inline
  /// on the caller, N = that many (the caller counts as one).
  unsigned threads = 0;
};

/// Mean / spread summary of one scalar metric across replications.
struct SummaryStat {
  double mean = 0.0;
  double stddev = 0.0;     ///< sample standard deviation (n - 1)
  double ci95_half = 0.0;  ///< half-width of the 95% CI (Student t)
  double min = 0.0;
  double max = 0.0;
};

/// Cross-replication summaries of the SimResult metrics.
struct ReplicationSummary {
  int replications = 0;
  std::vector<std::uint64_t> seeds;  ///< seed used by each replication
  SummaryStat throughput_bytes_per_sec;
  SummaryStat min_delay_seconds;
  SummaryStat mean_delay_seconds;
  SummaryStat max_delay_seconds;
  SummaryStat max_backlog_bytes;
  SummaryStat packets_delivered;
  /// Per-node busy-fraction summaries, in pipeline order.
  std::vector<SummaryStat> node_utilization;
  std::vector<std::string> node_names;  ///< parallel to node_utilization
  /// Extremes across all replications, for bracketing against NC bounds
  /// (a sound bound must dominate every replication, not just the mean).
  util::Duration worst_delay;
  util::DataSize worst_backlog;
  /// The raw per-replication results, in replication order.
  std::vector<SimResult> results;
};

class ReplicationRunner {
 public:
  explicit ReplicationRunner(ReplicationConfig config);

  /// Runs the chain simulator `config.replications` times; `base` supplies
  /// everything but the seed.
  ReplicationSummary run(const std::vector<netcalc::NodeSpec>& nodes,
                         const netcalc::SourceSpec& source,
                         const SimConfig& base) const;

  const ReplicationConfig& config() const { return config_; }

 private:
  ReplicationConfig config_;
};

/// Summarizes a scalar sample vector (mean, sample stddev, Student-t 95%
/// CI half-width, min, max). Deterministic left-to-right accumulation.
SummaryStat summarize(const std::vector<double>& samples);

}  // namespace streamcalc::streamsim
