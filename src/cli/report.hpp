// The analysis the CLI prints for a parsed pipeline spec. compute_analysis
// runs the model, the post-flight, the stochastic tier and the simulator
// once into an Analysis; render_text and render_json only format it, so
// text and JSON carry the same numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/spec.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/pipeline.hpp"
#include "netcalc/report.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/context.hpp"

namespace streamcalc::cli {

/// P(violation) <= epsilon bounds (each report carries its epsilon). For a
/// chain with an explicit [source] model they are clamped by the sure
/// bounds.
struct StochasticBounds {
  netcalc::DelayReport delay;
  netcalc::BacklogReport backlog;
  std::string source;  ///< label of the MGF source; chains only
};

/// The simulation cross-check against the sure bounds.
struct SimulationCheck {
  std::uint64_t seed = 0;
  streamsim::SimResult result;  ///< recorded without traces
  bool delay_within_bound = false;
  bool backlog_within_bound = false;
};

/// The configuration analyze simulates `spec` with: the spec's horizon,
/// seed and queue capacity, a warmup of a fifth of the horizon, and no
/// traces (the reports read none).
streamsim::SimConfig simulation_config(const Spec& spec);

/// The numbers only a chain reports.
struct ChainFacts {
  netcalc::Regime regime = netcalc::Regime::kUnderloaded;
  std::string bottleneck;
  util::DataSize job_volume;  ///< infinite for an unbounded stream
  util::Duration total_latency;
  util::Duration horizon;  ///< of `throughput`
  netcalc::ThroughputBounds throughput;
  util::DataRate mm1_roofline;
};

/// Every number an analyze report prints.
struct Analysis {
  std::size_t edges = 0;  ///< DAG only
  util::DataRate offered;
  std::optional<ChainFacts> chain;  ///< present iff the spec is a chain
  netcalc::DelayReport delay;
  netcalc::BacklogReport backlog;
  std::optional<StochasticBounds> stochastic;  ///< at a non-negative epsilon
  /// One row type for both kinds; aggregation_wait is reported for chains
  /// only.
  std::vector<netcalc::NodeAnalysis> per_node;
  std::vector<netcalc::DagPathAnalysis> paths;  ///< DAG only
  std::optional<SimulationCheck> simulation;  ///< when the spec simulates
};

/// Builds the model, runs the certify post-flight (governed by `ctx`) and
/// computes the analysis, calling each model getter at most once. A
/// non-negative `epsilon` (--epsilon) adds the stochastic bounds.
Analysis compute_analysis(const Spec& spec, const util::Context& ctx,
                          double epsilon = -1.0);

/// The text report.
std::string render_text(const Analysis& analysis);

/// The --json report: one object with every number the text report
/// prints. Non-finite values render as null.
std::string render_json(const Analysis& analysis);

/// render_text(compute_analysis(spec, ctx, epsilon)).
std::string run_report(const Spec& spec, const util::Context& ctx,
                       double epsilon = -1.0);

/// render_json(compute_analysis(spec, ctx, epsilon)).
std::string run_report_json(const Spec& spec, const util::Context& ctx,
                            double epsilon = -1.0);

/// Stochastic-tier report for a chain spec: the MGF source (explicit
/// [source] model, or the leaky bucket implied by rate/burst), Chernoff
/// delay/backlog bounds at `epsilon` vs the sure bounds, and the
/// aggregation-of-N-users scaling table. Text or JSON (`json`).
std::string run_stoch_report(const Spec& spec, double epsilon, bool json);

/// CLI driver for `streamcalc analyze <spec>`: reads the single spec in
/// `opts.paths`, parses it, runs the lint pre-flight, and prints the text
/// or JSON report. Exit codes: 0 = analyzed, 1 = unreadable, unparseable,
/// or failed strict pre/post-flight.
int run_analyze(const Options& opts);

/// CLI driver for `streamcalc stoch <spec>`: like run_analyze but prints
/// run_stoch_report at opts.epsilon (default 1e-6 when the flag was not
/// given). Chain specs only — a [topology] DAG is an error (exit 1).
int run_stoch(const Options& opts);

}  // namespace streamcalc::cli
