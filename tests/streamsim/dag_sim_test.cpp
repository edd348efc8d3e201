#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "netcalc/dag.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "testing/compare.hpp"
#include "util/error.hpp"

namespace streamcalc::streamsim {
namespace {

using netcalc::DagEdge;
using netcalc::DagModel;
using netcalc::DagSpec;
using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;
using namespace util::literals;

NodeSpec stage(const char* name, double mibps_min, double mibps_avg,
               double mibps_max) {
  return NodeSpec::from_rates(name, NodeKind::kCompute, 64_KiB,
                              DataRate::mib_per_sec(mibps_min),
                              DataRate::mib_per_sec(mibps_avg),
                              DataRate::mib_per_sec(mibps_max));
}

SourceSpec source(double mibps) {
  SourceSpec s;
  s.rate = DataRate::mib_per_sec(mibps);
  s.burst = DataSize::bytes(0);
  s.packet = 64_KiB;
  return s;
}

SimConfig config(double seconds, std::uint64_t seed = 3) {
  SimConfig c;
  c.horizon = Duration::seconds(seconds);
  c.warmup = Duration::seconds(seconds / 5);
  c.seed = seed;
  return c;
}

DagSpec fork_join() {
  DagSpec d;
  d.nodes = {stage("split", 400, 420, 440), stage("left", 100, 110, 120),
             stage("right", 120, 130, 140), stage("join", 200, 210, 220)};
  d.edges = {{0, 1, 0.5}, {0, 2, 0.5}, {1, 3, 1.0}, {2, 3, 1.0}};
  d.entries = {{0, 0, 1.0}};
  return d;
}

cli::Spec read_spec(const std::string& dir, const std::string& stem) {
  std::string text;
  EXPECT_TRUE(cli::read_spec_text(dir + "/" + stem + ".scspec", text))
      << stem;
  return cli::parse_spec(text);
}

TEST(DagSim, ChainMatchesLinearSimulator) {
  // simulate() runs the chain's one-path DAG, so simulate_dag() on
  // DagSpec::chain must return the same SimResult bit for bit, traced and
  // untraced, on the recurrence and (bitw's queue capacity of 2) the DES.
  struct Case {
    std::string name;
    std::vector<NodeSpec> nodes;
    SourceSpec source;
    SimConfig config;
  };
  std::vector<Case> cases{{"two-stage chain",
                           {stage("a", 200, 220, 240),
                            stage("b", 100, 110, 120)},
                           source(50),
                           config(2.0)}};
  const std::pair<const char*, const char*> specs[] = {
      {SC_SPEC_DIR, "quickstart"},
      {SC_SPEC_DIR, "bitw"},
      {SC_SPEC_DIR, "onoff_users"},
      {SC_LINT_SPEC_DIR, "blast_base"},
  };
  for (const auto& [dir, stem] : specs) {
    const cli::Spec spec = read_spec(dir, stem);
    ASSERT_FALSE(spec.is_dag()) << stem;
    cases.push_back(
        {stem, spec.nodes, spec.source, cli::simulation_config(spec)});
  }
  for (Case& k : cases) {
    for (const std::size_t traces : {std::size_t{4096}, std::size_t{0}}) {
      k.config.max_trace_samples = traces;
      const SimResult chain = simulate(k.nodes, k.source, k.config);
      const SimResult dag =
          simulate_dag(DagSpec::chain(k.nodes), k.source, k.config);
      EXPECT_EQ(streamcalc::testing::bit_diff(chain, dag), "")
          << k.name << ", trace cap " << traces;
      EXPECT_GT(chain.packets_delivered, 0u) << k.name;
    }
  }
}

TEST(DagSim, ForkJoinConservesThroughput) {
  const auto r = simulate_dag(fork_join(), source(80), config(2.0));
  EXPECT_NEAR(r.throughput.in_mib_per_sec(), 80.0, 4.0);
}

TEST(DagSim, SplitSharesFollowFractions) {
  DagSpec d = fork_join();
  d.edges[0].fraction = 0.25;
  d.edges[1].fraction = 0.75;
  const auto r = simulate_dag(d, source(80), config(2.0));
  ASSERT_EQ(r.node_stats.size(), 4u);
  const double left = static_cast<double>(r.node_stats[1].jobs);
  const double right = static_cast<double>(r.node_stats[2].jobs);
  EXPECT_NEAR(left / (left + right), 0.25, 0.03);
}

TEST(DagSim, UncoveredFractionLeavesTheSystem) {
  DagSpec d;
  d.nodes = {stage("head", 400, 420, 440), stage("tail", 200, 210, 220)};
  d.edges = {{0, 1, 0.5}};  // half the output leaves the modeled system
  d.entries = {{0, 0, 1.0}};
  const auto r = simulate_dag(d, source(80), config(2.0));
  EXPECT_NEAR(r.throughput.in_mib_per_sec(), 40.0, 3.0);
}

TEST(DagSim, WithinDagModelBounds) {
  const DagSpec d = fork_join();
  const SourceSpec src = source(60);
  const DagModel model(d, src, netcalc::ModelPolicy{});
  auto cfg = config(2.0);
  cfg.warmup = Duration::seconds(0);
  const auto r = simulate_dag(d, src, cfg);
  EXPECT_LE(r.max_delay.in_seconds(),
            model.delay_bound().value.in_seconds() + 1e-9);
  EXPECT_LE(r.max_backlog.in_bytes(),
            model.backlog_bound().value.in_bytes() + 1.0);
}

TEST(DagSim, DeterministicForFixedSeed) {
  const auto a = simulate_dag(fork_join(), source(70), config(1.0, 9));
  const auto b = simulate_dag(fork_join(), source(70), config(1.0, 9));
  EXPECT_EQ(a.throughput.in_bytes_per_sec(), b.throughput.in_bytes_per_sec());
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
}

TEST(DagSim, RejectsBadInput) {
  DagSpec d = fork_join();
  d.edges.push_back({3, 0, 1.0});  // cycle
  EXPECT_THROW(simulate_dag(d, source(50), config(1.0)),
               util::PreconditionError);
}

TEST(DagSim, RejectsChainOnlySourceModels) {
  // Rate profiles and on/off users drive chain sources only; a DAG must
  // not silently fall back to the constant rate.
  auto profiled = config(1.0);
  profiled.rate_profile = {{0.0, 1e6}, {0.5, 0.0}};
  EXPECT_THROW(simulate_dag(fork_join(), source(50), profiled),
               util::PreconditionError);
  auto onoff = config(1.0);
  onoff.onoff_users = 2;
  EXPECT_THROW(simulate_dag(fork_join(), source(50), onoff),
               util::PreconditionError);
  auto late = config(1.0);
  late.warmup = Duration::seconds(1.0);
  EXPECT_THROW(simulate_dag(fork_join(), source(50), late),
               util::PreconditionError);
}

}  // namespace
}  // namespace streamcalc::streamsim
