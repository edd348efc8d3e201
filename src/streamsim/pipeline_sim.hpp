// Discrete-event simulation of a streaming pipeline (paper, Section 4.2).
//
// The simulator executes the same NodeSpec chain the network-calculus model
// analyzes, reproducing the paper's SimPy methodology: each node has a
// minimum and maximum execution time, a data packet size to consume and one
// to emit; the events are packet arrival at a node, initiation of execution
// when the node becomes free, and packet departure when execution
// completes; execution times are drawn from a uniform distribution between
// the measured bounds.
//
// All statistics are *input-normalized* (bytes referred to the pipeline
// input, following Timcheck & Buhler) so they are directly comparable to
// the network-calculus curves: cumulative output trace (the stairstep of
// Figs. 4 and 10), end-to-end packet delays (shortest/longest observed),
// and total data resident in the system (max backlog).
//
// Both entry points simulate a DagSpec: simulate() runs the chain's
// one-path DAG (DagSpec::chain), so a chain and that DAG give the same
// SimResult bit for bit. One engine computes it, the max-plus recurrence
// (recurrence.cpp), with draws from per-node streams. With unlimited
// queues (the paper's base configuration) a node never blocks its
// upstream: a job starts at max(arrival of the packet that completes it,
// previous finish) and finishes at start + exec, and the nodes run in
// topological order over rounds of source packets. A finite
// queue_capacity (chains only) runs the tandem with blocking after
// service: a packet enters the next queue once the consumer has taken the
// packet queue_capacity places ahead of it. Where events meet at one
// instant the order is fixed: a source emit whose timer expires there
// first, a burst emit released by a blocked put after the deliveries, and
// any other meeting in the producers' topological order. The coroutine DES
// in tests/support/des runs the same pipeline as the tests' oracle, and
// equals the recurrence bit for bit on every generated case; the obs
// counter streamsim.recurrence.runs counts the simulations.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace streamcalc::streamsim {

/// Service-time (and source inter-arrival) distributions.
enum class TimeDistribution {
  kUniformMixture,  ///< in [min, max] with mean = avg (the paper's setup)
  kExponential,     ///< exponential with mean = avg (M/M/1 validation)
};

/// How per-job volume ratios are chosen in the simulation.
enum class VolumeMode {
  kSampled,    ///< random in [min, max] with mean = avg (default)
  kWorstCase,  ///< always volume.max (most data downstream)
  kBestCase,   ///< always volume.min
  kAverage,    ///< always volume.avg
};

/// Simulation parameters.
struct SimConfig {
  util::Duration horizon;     ///< simulated run length
  /// Statistics (throughput, delays, max backlog) are collected only after
  /// this much simulated time, excluding pipeline-fill transients; traces
  /// still record the full run.
  util::Duration warmup;
  std::uint64_t seed = 1;     ///< RNG seed (split per node)
  /// Inter-stage queue capacity in packets, at least 1; kUnlimitedQueue =
  /// no backpressure (the paper's base configuration).
  std::size_t queue_capacity = kUnlimitedQueue;
  /// Use mean execution times and volumes instead of sampling (for
  /// variance-free regression tests).
  bool deterministic = false;
  /// Volume-ratio selection; the paper's BITW simulation corresponds to
  /// kWorstCase (compression ratio 1.0).
  VolumeMode volume_mode = VolumeMode::kSampled;
  /// Service-time distribution (mean is always the node's time_avg).
  TimeDistribution service_distribution = TimeDistribution::kUniformMixture;
  /// Poisson packet arrivals (exponential inter-arrival with the source's
  /// mean rate) instead of a deterministic period — pairs with
  /// kExponential service for M/M/1 validation runs.
  bool poisson_arrivals = false;
  /// Cap on recorded trace samples (traces are thinned beyond this; 0
  /// records none).
  std::size_t max_trace_samples = 4096;
  /// Markov-modulated on/off source population (chain simulate() with
  /// unlimited queues only): when `onoff_users` > 0 the constant-rate
  /// source is replaced by that many independent on/off users, each
  /// alternating exponential silences (mean `onoff_mean_off`) and
  /// exponential on-periods (mean `onoff_mean_on`) during which it emits
  /// whole source-packet-sized packets at rate `onoff_peak`; the partial
  /// accumulation window at an on->off switch is discarded. This is the
  /// simulated twin of stochcalc::Arrival::on_off for the tail-quantile
  /// oracle.
  std::size_t onoff_users = 0;
  util::DataRate onoff_peak;
  util::Duration onoff_mean_on;
  util::Duration onoff_mean_off;
  /// Optional piecewise-constant source-rate profile (chain simulate()
  /// only): (start_seconds, bytes/s), each rate holding until the next
  /// entry (the last holds to the horizon). Empty = the constant
  /// SourceSpec rate. Pair with
  /// netcalc::cumulative_from_rate_profile() +
  /// netcalc::minimal_arrival_curve() to model the same workload.
  std::vector<std::pair<double, double>> rate_profile;

  static constexpr std::size_t kUnlimitedQueue = SIZE_MAX;
};

/// Per-node observations.
struct NodeStats {
  std::string name;
  double utilization = 0.0;       ///< busy time / horizon
  std::uint64_t jobs = 0;         ///< jobs executed
};

/// Whole-run observations.
struct SimResult {
  util::DataRate throughput;   ///< delivered input-normalized bytes / horizon
  util::Duration min_delay;    ///< shortest end-to-end packet delay
  util::Duration max_delay;    ///< longest end-to-end packet delay
  util::Duration mean_delay;
  util::DataSize max_backlog;  ///< max input-normalized bytes in the system
  std::uint64_t packets_delivered = 0;
  /// Cumulative delivered data over time (t seconds, normalized bytes) —
  /// the stairstep curve plotted between the NC bounds in Figs. 4 and 10.
  std::vector<std::pair<double, double>> output_trace;
  /// System backlog over time (t seconds, normalized bytes).
  std::vector<std::pair<double, double>> backlog_trace;
  /// Per-delivery end-to-end delay (t seconds, delay seconds), thinned to
  /// max_trace_samples like the other traces — the empirical delay
  /// distribution the stochastic-bound oracle takes tail quantiles of.
  std::vector<std::pair<double, double>> delay_trace;
  std::vector<NodeStats> node_stats;
};

/// Simulates `nodes` fed by `source` as their one-path DAG. Deterministic
/// for a fixed config (seeded RNG, fixed order at one instant). Throws
/// PreconditionError on an invalid config, including a warmup outside
/// [0, horizon), a queue_capacity of 0 and on/off users with a finite
/// queue_capacity, before any simulation runs.
SimResult simulate(const std::vector<netcalc::NodeSpec>& nodes,
                   const netcalc::SourceSpec& source, const SimConfig& config);

/// Simulates a DAG pipeline (netcalc::DagSpec): splitters route each
/// emitted packet along outgoing edges with deterministic weighted
/// round-robin matching the edge fractions; fraction mass not covered by
/// edges leaves the modeled system. Packets reaching nodes without
/// outgoing edges are delivered to the sink. Statistics as in simulate().
/// Rate profiles, on/off users and a finite queue_capacity apply to chains
/// only: they are rejected, the last on a DAG with a split, a join or a
/// dropped share.
SimResult simulate_dag(const netcalc::DagSpec& dag,
                       const netcalc::SourceSpec& source,
                       const SimConfig& config);

}  // namespace streamcalc::streamsim
