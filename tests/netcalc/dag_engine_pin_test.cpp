// Pins DagModel::with_entry_arrivals (the serve admission engine's DAG
// path) to the source-seeded DagModel constructor, bit for bit.
//
// Given the envelopes the constructor seeds from the source, the factory
// must give exactly the curves and bounds the constructor gives: per-node
// arrival and service curves, every path's flow, concatenated service, hop
// residuals and delay, and the total backlog. Curves are compared on the
// IEEE-754 bit patterns of their segments, so a reordered fold or a
// different rounding fails here even when it would compare equal as
// doubles.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "minplus/curve.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/pipeline.hpp"
#include "testing/compare.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {
namespace {

using minplus::Curve;
using testing::bit_diff;
using util::DataRate;
using util::DataSize;
using namespace util::literals;

NodeSpec stage(const char* name, DataSize block, double mibps_min,
               double mibps_avg, double mibps_max) {
  return NodeSpec::from_rates(name, NodeKind::kCompute, block,
                              DataRate::mib_per_sec(mibps_min),
                              DataRate::mib_per_sec(mibps_avg),
                              DataRate::mib_per_sec(mibps_max));
}

SourceSpec source(double mibps, DataSize burst) {
  SourceSpec s;
  s.rate = DataRate::mib_per_sec(mibps);
  s.burst = burst;
  s.packet = 64_KiB;
  return s;
}

/// The shape and rates of examples/specs/fork_join.scspec.
DagSpec fork_join() {
  DagSpec d;
  d.nodes = {stage("ingest", 64_KiB, 500, 550, 600),
             stage("video", 64_KiB, 90, 100, 115),
             stage("audio", 64_KiB, 150, 165, 180),
             stage("mux", 64_KiB, 250, 270, 290)};
  d.edges = {{0, 1, 0.6}, {0, 2, 0.4}, {1, 3, 1.0}, {2, 3, 1.0}};
  d.entries = {{0, 0, 1.0}};
  return d;
}

/// Two entries with fractions below 1, splitters with fractions below 1,
/// a compressing stage and an aggregating stage that collects a larger
/// block than its producers emit.
DagSpec multi_entry() {
  DagSpec d;
  NodeSpec squeeze = stage("squeeze", 64_KiB, 300, 320, 340);
  squeeze.volume = VolumeRatio::from_compression(1.2, 2.0, 3.5);
  d.nodes = {stage("a", 64_KiB, 400, 420, 450), squeeze,
             stage("c", 256_KiB, 200, 230, 260),
             stage("d", 64_KiB, 150, 160, 170),
             stage("e", 128_KiB, 350, 360, 380)};
  d.edges = {{0, 2, 0.7}, {0, 3, 0.3}, {1, 2, 0.5}, {1, 4, 0.5},
             {2, 4, 1.0}, {3, 4, 0.8}};
  d.entries = {{0, 0, 0.55}, {0, 1, 0.35}};
  return d;
}

/// An entry node that also has an incoming edge: `merge` is fed by the
/// source directly and by `pre` downstream of the other entry.
DagSpec entry_with_edge() {
  DagSpec d;
  d.nodes = {stage("head", 64_KiB, 300, 310, 330),
             stage("pre", 64_KiB, 200, 210, 220),
             stage("merge", 128_KiB, 400, 420, 440)};
  d.edges = {{0, 1, 1.0}, {1, 2, 1.0}};
  d.entries = {{0, 0, 0.6}, {0, 2, 0.4}};
  return d;
}

ModelPolicy averaged_policy() {
  ModelPolicy p;
  p.packetize = false;
  p.max_service_latency = true;
  p.service_basis = RateBasis::kAvg;
  p.max_service_basis = RateBasis::kAvg;
  return p;
}

/// The envelope the DagModel constructor seeds entry `e` with: the
/// source arrival curve scaled by the entry's fraction, plus one source
/// packet of splitter granularity below a fraction of 1.
Curve seeded_envelope(const DagEdge& e, const SourceSpec& src) {
  Curve env = source_arrival(src).scale_value(e.fraction);
  if (e.fraction < 1.0) env = env.plus_step(src.packet.in_bytes());
  return env;
}

/// `got` against `ref` on every curve and bound both expose.
void expect_same_model(const DagModel& got_model, const DagModel& ref,
                       const std::string& what) {
  const std::size_t n = ref.dag().nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bit_diff(got_model.node_arrival(i), ref.node_arrival(i)), "")
        << what << ": arrival of node " << i;
    EXPECT_EQ(bit_diff(got_model.node_service(i), ref.node_service(i)), "")
        << what << ": service of node " << i;
  }
  const auto got = got_model.per_path_analysis();
  const auto want = ref.per_path_analysis();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(got[p].nodes, want[p].nodes) << what << ": path " << p;
    EXPECT_EQ(got[p].residual_valid, want[p].residual_valid)
        << what << ": path " << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[p].delay.in_seconds()),
              std::bit_cast<std::uint64_t>(want[p].delay.in_seconds()))
        << what << ": delay of path " << p;
    EXPECT_EQ(bit_diff(got[p].flow, want[p].flow), "")
        << what << ": flow of path " << p;
    EXPECT_EQ(bit_diff(got[p].path_service, want[p].path_service), "")
        << what << ": service of path " << p;
    ASSERT_EQ(got[p].hop_residuals.size(), want[p].hop_residuals.size())
        << what << ": path " << p;
    for (std::size_t h = 0; h < want[p].hop_residuals.size(); ++h) {
      EXPECT_EQ(bit_diff(got[p].hop_residuals[h], want[p].hop_residuals[h]),
                "")
          << what << ": residual of path " << p << " hop " << h;
    }
  }
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(got_model.backlog_bound().value.in_bytes()),
      std::bit_cast<std::uint64_t>(ref.backlog_bound().value.in_bytes()))
      << what << ": backlog";
}

void expect_fresh_matches(const DagSpec& dag, const SourceSpec& src,
                          const ModelPolicy& policy,
                          const std::string& what) {
  std::vector<Curve> envelopes;
  for (const DagEdge& e : dag.entries) {
    envelopes.push_back(seeded_envelope(e, src));
  }
  const DagModel got =
      DagModel::with_entry_arrivals(dag, src, policy, std::move(envelopes));
  const DagModel ref(dag, src, policy);
  expect_same_model(got, ref, what);
}

TEST(DagEnginePin, ForkJoinSpec) {
  expect_fresh_matches(fork_join(), source(120, 0_B), {}, "fork_join");
}

TEST(DagEnginePin, MultiEntryFractionalSplits) {
  expect_fresh_matches(multi_entry(), source(150, 256_KiB), {},
                       "multi_entry");
}

TEST(DagEnginePin, EntryNodeWithIncomingEdge) {
  expect_fresh_matches(entry_with_edge(), source(140, 128_KiB), {},
                       "entry_with_edge");
}

TEST(DagEnginePin, AveragedUnpacketizedPolicy) {
  expect_fresh_matches(fork_join(), source(120, 0_B), averaged_policy(),
                       "fork_join/averaged");
  expect_fresh_matches(multi_entry(), source(150, 256_KiB),
                       averaged_policy(), "multi_entry/averaged");
  expect_fresh_matches(entry_with_edge(), source(140, 128_KiB),
                       averaged_policy(), "entry_with_edge/averaged");
}

TEST(DagEnginePin, WithEntryArrivalsRequiresOneEnvelopePerEntry) {
  const DagSpec dag = multi_entry();
  const SourceSpec src = source(150, 256_KiB);
  EXPECT_THROW(DagModel::with_entry_arrivals(dag, src, {}, {}),
               util::PreconditionError);
  EXPECT_THROW(DagModel::with_entry_arrivals(
                   dag, src, {}, {seeded_envelope(dag.entries[0], src)}),
               util::PreconditionError);
}

}  // namespace
}  // namespace streamcalc::netcalc
