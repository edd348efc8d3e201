#include "netcalc/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "cli/spec.hpp"
#include "minplus/curve.hpp"
#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "testing/compare.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {
namespace {

using testing::bit_diff;
using util::DataRate;
using util::DataSize;
using util::Duration;
using namespace util::literals;

NodeSpec stage(const char* name, double mibps_min, double mibps_avg,
               double mibps_max) {
  NodeSpec n = NodeSpec::from_rates(name, NodeKind::kCompute, 64_KiB,
                                    DataRate::mib_per_sec(mibps_min),
                                    DataRate::mib_per_sec(mibps_avg),
                                    DataRate::mib_per_sec(mibps_max));
  return n;
}

SourceSpec source(double mibps) {
  SourceSpec s;
  s.rate = DataRate::mib_per_sec(mibps);
  s.burst = DataSize::bytes(0);
  s.packet = 64_KiB;
  return s;
}

/// a -> b -> c chain expressed as a DAG.
DagSpec chain_dag() {
  return DagSpec::chain({stage("a", 200, 220, 240), stage("b", 100, 110, 120),
                         stage("c", 300, 320, 340)});
}

/// Fork-join: src -> split(a 50%, b 50%); both feed join.
DagSpec fork_join_dag() {
  DagSpec d;
  d.nodes = {stage("split", 400, 420, 440), stage("left", 100, 110, 120),
             stage("right", 120, 130, 140), stage("join", 200, 210, 220)};
  d.edges = {{0, 1, 0.5}, {0, 2, 0.5}, {1, 3, 1.0}, {2, 3, 1.0}};
  d.entries = {{0, 0, 1.0}};
  return d;
}

TEST(DagSpec, ChainIsItsOnePathDag) {
  const DagSpec d = chain_dag();
  ASSERT_EQ(d.nodes.size(), 3u);
  EXPECT_EQ(d.nodes[2].name, "c");
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].to, 0u);
  EXPECT_EQ(d.entries[0].fraction, 1.0);
  ASSERT_EQ(d.edges.size(), 2u);
  for (std::size_t i = 0; i < d.edges.size(); ++i) {
    EXPECT_EQ(d.edges[i].from, i);
    EXPECT_EQ(d.edges[i].to, i + 1);
    EXPECT_EQ(d.edges[i].fraction, 1.0);
  }
  EXPECT_EQ(d.validate(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(DagSpec::chain({stage("a", 200, 220, 240)}).edges.empty());
  EXPECT_THROW(DagSpec::chain({}).validate(), util::PreconditionError);
}

TEST(DagSpec, ValidatesGoodGraphs) {
  chain_dag().validate();
  fork_join_dag().validate();
}

TEST(DagSpec, RejectsBadGraphs) {
  DagSpec d = chain_dag();
  d.edges.push_back({2, 0, 1.0});  // cycle
  EXPECT_THROW(d.validate(), util::PreconditionError);

  d = chain_dag();
  d.edges[0].to = 9;  // out of range
  EXPECT_THROW(d.validate(), util::PreconditionError);

  d = chain_dag();
  d.edges.push_back({0, 2, 0.7});  // outgoing fractions 1.7
  EXPECT_THROW(d.validate(), util::PreconditionError);

  d = chain_dag();
  d.entries.clear();
  EXPECT_THROW(d.validate(), util::PreconditionError);

  d = chain_dag();
  d.edges[0].fraction = 0.0;
  EXPECT_THROW(d.validate(), util::PreconditionError);
}

/// fork_join_dag() plus an 'orphan' node with no entry and no incoming
/// edge, feeding the join.
DagSpec orphaned_dag() {
  DagSpec d = fork_join_dag();
  d.nodes.push_back(stage("orphan", 100, 110, 120));
  d.edges.push_back({4, 3, 1.0});
  return d;
}

TEST(DagSpec, RejectsNodesUnreachableFromTheEntries) {
  try {
    orphaned_dag().validate();
    FAIL() << "an unfed node passed validate()";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("'orphan'"), std::string::npos)
        << e.what();
  }
  // Every model over the spec rejects it before any curve work.
  EXPECT_THROW(DagModel(orphaned_dag(), source(100)),
               util::PreconditionError);
  const std::vector<minplus::Curve> envelopes(orphaned_dag().entries.size(),
                                              minplus::Curve::zero());
  EXPECT_THROW(DagModel::with_entry_arrivals(orphaned_dag(), source(100), {},
                                             envelopes),
               util::PreconditionError);
}

TEST(DagSpec, TopologicalOrder) {
  const auto order = fork_join_dag().topological_order();
  ASSERT_EQ(order.size(), 4u);
  const auto pos = [&](std::size_t i) {
    return std::find(order.begin(), order.end(), i) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
}

TEST(DagSpec, PathEnumeration) {
  const auto paths = fork_join_dag().paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(paths[1], (std::vector<std::size_t>{0, 2, 3}));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A DagModel of the chain's one-path DAG against the PipelineModel of the
/// chain, bit for bit: per-node curves and rows, and the one path's delay
/// against the chain's end-to-end delay bound.
void expect_chain_matches_one_path(const std::vector<NodeSpec>& nodes,
                                   const SourceSpec& src,
                                   const ModelPolicy& policy,
                                   const std::string& what) {
  const DagModel dag_model(DagSpec::chain(nodes), src, policy);
  const PipelineModel chain_model(nodes, src, policy);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(bit_diff(dag_model.node_service(i),
                       chain_model.node_service_curve(i)),
              "")
        << what << ": service of node " << i;
    EXPECT_EQ(bit_diff(dag_model.node_max_service(i),
                       chain_model.node_max_service_curve(i)),
              "")
        << what << ": max service of node " << i;
    EXPECT_EQ(bit_diff(dag_model.node_arrival(i),
                       chain_model.node_arrival_curve(i)),
              "")
        << what << ": arrival of node " << i;
  }
  const auto dag_rows = dag_model.per_node_analysis();
  const auto chain_rows = chain_model.per_node_analysis();
  ASSERT_EQ(dag_rows.size(), chain_rows.size()) << what;
  for (std::size_t i = 0; i < chain_rows.size(); ++i) {
    const NodeAnalysis& d = dag_rows[i];
    const NodeAnalysis& c = chain_rows[i];
    const std::string row = what + ": row " + c.name;
    EXPECT_EQ(d.name, c.name) << row;
    EXPECT_EQ(d.load_regime, c.load_regime) << row;
    EXPECT_EQ(bits(d.arrival_rate.in_bytes_per_sec()),
              bits(c.arrival_rate.in_bytes_per_sec()))
        << row;
    EXPECT_EQ(bits(d.service_rate.in_bytes_per_sec()),
              bits(c.service_rate.in_bytes_per_sec()))
        << row;
    EXPECT_EQ(bits(d.delay.in_seconds()), bits(c.delay.in_seconds())) << row;
    EXPECT_EQ(bits(d.backlog.in_bytes()), bits(c.backlog.in_bytes())) << row;
    EXPECT_EQ(bits(d.buffer_bytes.in_bytes()), bits(c.buffer_bytes.in_bytes()))
        << row;
    EXPECT_EQ(bits(d.aggregation_wait.in_seconds()),
              bits(c.aggregation_wait.in_seconds()))
        << row;
  }
  const auto paths = dag_model.per_path_analysis();
  ASSERT_EQ(paths.size(), 1u) << what;
  EXPECT_EQ(bits(paths[0].delay.in_seconds()),
            bits(chain_model.delay_bound().value.in_seconds()))
      << what << ": delay";
}

cli::Spec read_spec(const std::string& dir, const std::string& stem) {
  std::string text;
  EXPECT_TRUE(cli::read_spec_text(dir + "/" + stem + ".scspec", text))
      << stem;
  return cli::parse_spec(text);
}

TEST(DagModel, ChainMatchesPipelineModelBounds) {
  ModelPolicy unpacketized;
  unpacketized.packetize = false;
  expect_chain_matches_one_path(chain_dag().nodes, source(50), unpacketized,
                                "chain_dag");
  // The shipped chain specs (fork_join, the fourth example spec, is a DAG)
  // and the BLAST fixture.
  const std::pair<const char*, const char*> specs[] = {
      {SC_SPEC_DIR, "quickstart"},
      {SC_SPEC_DIR, "bitw"},
      {SC_SPEC_DIR, "onoff_users"},
      {SC_LINT_SPEC_DIR, "blast_base"},
  };
  for (const auto& [dir, stem] : specs) {
    const cli::Spec spec = read_spec(dir, stem);
    ASSERT_FALSE(spec.is_dag()) << stem;
    expect_chain_matches_one_path(spec.nodes, spec.source, spec.policy, stem);
  }
}

/// fork_join_dag() with a join that collects 1 MiB blocks from the
/// branches' 64 KiB packets.
DagSpec collecting_join_dag() {
  DagSpec d = fork_join_dag();
  d.nodes[3] = NodeSpec::from_rates("join", NodeKind::kCompute, 1_MiB,
                                    DataRate::mib_per_sec(200),
                                    DataRate::mib_per_sec(210),
                                    DataRate::mib_per_sec(220));
  return d;
}

TEST(DagModel, FiniteJobKeepsTheCollectionWait) {
  // The join fills a block at the sustained rate that reaches it, whether
  // or not the job is finite: a 64 MiB job caps the arrival envelope, not
  // the pace at which the branches deliver.
  const DagSpec d = collecting_join_dag();
  SourceSpec job = source(80);
  job.job_volume = 64_MiB;
  const DagModel stream(d, source(80));
  const DagModel finite(d, job);
  EXPECT_EQ(bit_diff(finite.node_service(3), stream.node_service(3)), "");

  // 0.75 s emits 60 MiB, under the job: the bound must cover every run.
  const Duration bound = finite.delay_bound().value;
  ASSERT_TRUE(bound.is_finite());
  streamsim::SimConfig cfg;
  cfg.horizon = Duration::seconds(0.75);
  cfg.max_trace_samples = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    cfg.seed = seed;
    const streamsim::SimResult r = streamsim::simulate_dag(d, job, cfg);
    EXPECT_LE(r.max_delay.in_seconds(), bound.in_seconds()) << "seed " << seed;
  }
}

TEST(DagModel, ForkJoinArrivalsSumAtTheJoin) {
  const DagModel m(fork_join_dag(), source(80), ModelPolicy{});
  // The join sees both branches: its sustained arrival is the full flow.
  const auto analysis = m.per_node_analysis();
  EXPECT_NEAR(analysis[3].arrival_rate.in_mib_per_sec(), 80.0, 4.0);
  // Branch nodes each see about half.
  EXPECT_NEAR(analysis[1].arrival_rate.in_mib_per_sec(), 40.0, 2.0);
  EXPECT_NEAR(analysis[2].arrival_rate.in_mib_per_sec(), 40.0, 2.0);
}

TEST(DagModel, ForkJoinBoundsFiniteWhenUnderloaded) {
  const DagModel m(fork_join_dag(), source(80), ModelPolicy{});
  for (const auto& a : m.per_node_analysis()) {
    EXPECT_EQ(a.load_regime, Regime::kUnderloaded) << a.name;
    EXPECT_TRUE(a.delay.is_finite()) << a.name;
    EXPECT_TRUE(a.backlog.is_finite()) << a.name;
  }
  EXPECT_TRUE(m.delay_bound().value.is_finite());
  EXPECT_TRUE(m.backlog_bound().value.is_finite());
}

TEST(DagModel, PathDelaysCoverBothBranches) {
  const DagModel m(fork_join_dag(), source(80), ModelPolicy{});
  const auto paths = m.per_path_analysis();
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    EXPECT_TRUE(p.delay.is_finite());
    EXPECT_GT(p.delay.in_seconds(), 0.0);
  }
  EXPECT_EQ(m.delay_bound().value,
            std::max(paths[0].delay, paths[1].delay));
}

TEST(DagModel, OverloadedBranchReportsInfiniteBounds) {
  DagSpec d = fork_join_dag();
  const DagModel m(d, source(300), ModelPolicy{});  // 150 per branch > 100
  bool any_overloaded = false;
  for (const auto& a : m.per_node_analysis()) {
    if (a.load_regime == Regime::kOverloaded) any_overloaded = true;
  }
  EXPECT_TRUE(any_overloaded);
  EXPECT_FALSE(m.backlog_bound().value.is_finite());
}

TEST(DagModel, SplitterFractionsScaleBranchLoad) {
  DagSpec d = fork_join_dag();
  d.edges[0].fraction = 0.25;  // left gets 1/4
  d.edges[1].fraction = 0.75;
  const DagModel m(d, source(80), ModelPolicy{});
  const auto analysis = m.per_node_analysis();
  EXPECT_NEAR(analysis[1].arrival_rate.in_mib_per_sec(), 20.0, 2.0);
  EXPECT_NEAR(analysis[2].arrival_rate.in_mib_per_sec(), 60.0, 2.0);
}

TEST(DagModel, VolumeChangesPropagateAlongEdges) {
  DagSpec d = chain_dag();
  d.nodes[0].volume = VolumeRatio::exact(0.25);  // filter at the head
  const DagModel m(d, source(50), ModelPolicy{});
  // Node b processes a quarter of the volume: normalized service rate 4x.
  EXPECT_NEAR(m.node_service(1).tail_slope(),
              4.0 * DataRate::mib_per_sec(100).in_bytes_per_sec(),
              DataRate::mib_per_sec(4).in_bytes_per_sec());
}

}  // namespace
}  // namespace streamcalc::netcalc
