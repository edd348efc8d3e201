#include "netcalc/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "minplus/curve.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {
namespace {

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
  DagSpec d;
  d.nodes = {stage("a", 200, 220, 240), stage("b", 100, 110, 120),
             stage("c", 300, 320, 340)};
  d.edges = {{0, 1, 1.0}, {1, 2, 1.0}};
  d.entries = {{0, 0, 1.0}};
  return d;
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

TEST(DagModel, ChainMatchesPipelineModelBounds) {
  const DagSpec d = chain_dag();
  const SourceSpec src = source(50);
  ModelPolicy pol;
  pol.packetize = false;
  const DagModel dag_model(d, src, pol);
  const PipelineModel chain_model(d.nodes, src, pol);
  // Same per-node service rates.
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    EXPECT_NEAR(dag_model.node_service(i).tail_slope(),
                chain_model.node_service_curve(i).tail_slope(), 1.0);
  }
  // The DAG's max-path delay is close to the chain's end-to-end bound
  // (identical latency structure; the DAG pays per-edge packet steps, so
  // allow a modest gap).
  EXPECT_NEAR(dag_model.delay_bound().value.in_seconds(),
              chain_model.delay_bound().value.in_seconds(),
              0.5 * chain_model.delay_bound().value.in_seconds());
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
