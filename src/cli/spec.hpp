// Pipeline specification files for the command-line tool: a small INI-like
// format describing the source, the stages, the modeling policy, and the
// analysis to run — so the models are usable without writing C++.
//
//   [source]
//   rate = 100 MiB/s
//   burst = 256 KiB
//   packet = 64 KiB
//   # job = 25 MiB              # optional finite job volume
//   # --- optional stochastic source (stoch subcommand, analyze --epsilon;
//   # --- chains only: a [topology] DAG rejects model and users)
//   # model = onoff             # onoff | poisson | leaky
//   # users = 50                # aggregated i.i.d. users (default 1)
//   # peak = 4 MiB/s            # onoff: per-user on-state rate
//   # mean_on = 200 ms          # onoff: mean on-sojourn
//   # mean_off = 800 ms         # onoff: mean off-sojourn
//   # lambda = 1200             # poisson: packets per second per user
//
//   [node transform]
//   kind = compute              # compute | network | pcie
//   block_in = 64 KiB
//   block_out = 64 KiB
//   rate_min = 120 MiB/s        # or time_min/time_avg/time_max
//   rate_avg = 140 MiB/s
//   rate_max = 165 MiB/s
//   compression = 1.0 2.2 5.3   # optional: observed ratios min avg max
//   # volume = 0.25             # or an exact bytes-out-per-byte-in ratio
//   aggregates = true
//   # latency = 5 us            # streaming-kernel latency override
//
//   [node uplink]
//   kind = network
//   bandwidth = 1 GiB/s
//   packet = 64 KiB
//   propagation = 50 us
//
//   [policy]
//   service_basis = min         # min | avg | max
//   max_service_basis = max
//   packetize = true
//
//   [analysis]
//   horizon = 1 s
//   simulate = true
//   seed = 42
//   queue_capacity = 4          # packets; omit for unlimited
//
// By default nodes form a chain in declaration order. A [topology]
// section turns the pipeline into a DAG:
//
//   [topology]
//   entry = demux 1.0           # source -> demux (fraction 1.0)
//   edge = demux video 0.6      # 60% of demux's output -> video
//   edge = demux audio 0.4
//   edge = video mux 1.0
//   edge = audio mux 1.0
//
// Lines starting with '#' (or ';') and blank lines are ignored. Unknown
// sections or keys are errors (typos should not silently change a model).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"

namespace streamcalc::cli {

/// What the CLI should do with the parsed pipeline.
struct AnalysisOptions {
  util::Duration horizon = util::Duration::seconds(1);
  bool simulate = false;
  std::uint64_t seed = 1;
  std::size_t queue_capacity = streamsim::SimConfig::kUnlimitedQueue;
};

/// Optional stochastic description of the source ([source] model = ...):
/// the MGF arrival the stoch subcommand and analyze --epsilon evaluate.
/// `model` empty means the spec declared none; the stochastic reports then
/// fall back to the leaky bucket implied by (rate, burst).
struct StochSourceSpec {
  std::string model;           ///< "" | "onoff" | "poisson" | "leaky"
  double users = 1.0;          ///< aggregated i.i.d. users
  util::DataRate peak;         ///< onoff: per-user on-state rate
  util::Duration mean_on;      ///< onoff: mean on-sojourn
  util::Duration mean_off;     ///< onoff: mean off-sojourn
  double lambda = 0.0;         ///< poisson: packets per second per user
};

/// A fully parsed specification.
struct Spec {
  netcalc::SourceSpec source;
  StochSourceSpec stoch_source;
  std::vector<netcalc::NodeSpec> nodes;
  netcalc::ModelPolicy policy;
  AnalysisOptions analysis;
  /// Non-empty when a [topology] section declares a DAG; node order and
  /// names come from the [node ...] sections.
  std::vector<netcalc::DagEdge> edges;
  std::vector<netcalc::DagEdge> entries;

  bool is_dag() const { return !edges.empty() || !entries.empty(); }
  /// Builds the DagSpec (requires is_dag()).
  netcalc::DagSpec dag() const;
};

/// Parses a quantity with a unit: "64 KiB", "1.5 MiB", "100 B".
/// Throws PreconditionError with the offending text on failure.
util::DataSize parse_size(std::string_view text);
/// "100 MiB/s", "10 GiB/s", "512 B/s".
util::DataRate parse_rate(std::string_view text);
/// "5 us", "1.5 ms", "2 s", "100 ns".
util::Duration parse_duration(std::string_view text);

/// Parses a whole specification document. Throws PreconditionError with a
/// line-numbered message on any syntax or semantic error.
Spec parse_spec(std::string_view text);

/// Like parse_spec, but skips the semantic validation (node specs, DAG
/// shape, positive source rate) — syntax errors still throw. Used by
/// `streamcalc lint`, which wants to load a semantically-broken model and
/// report *all* of its problems as structured diagnostics instead of
/// stopping at the first PreconditionError.
Spec parse_spec_lenient(std::string_view text);

}  // namespace streamcalc::cli
