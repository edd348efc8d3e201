// Pins the incremental DAG engine to the from-scratch DagModel, bit for bit.
//
// IncrementalDag (the serve admission engine's per-tenant state) must give
// exactly the curves and bounds DagModel gives for the same entry
// envelopes: per-node arrival and service curves, every path's flow,
// concatenated service, hop residuals and delay, and the total backlog.
// Curves are compared on the IEEE-754 bit patterns of their segments, so a
// reordered fold or a different rounding fails here even when it would
// compare equal as doubles.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "minplus/curve.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/incremental.hpp"
#include "netcalc/packetizer.hpp"
#include "util/rng.hpp"

namespace streamcalc::netcalc {
namespace {

using minplus::Curve;
using util::DataRate;
using util::DataSize;
using namespace util::literals;

constexpr std::uint64_t kSeed = 0x5eed0da9ULL;

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

/// Empty when `a` and `b` carry identical segment bit patterns; otherwise
/// names the first difference.
std::string bit_diff(const Curve& a, const Curve& b) {
  const auto& sa = a.segments();
  const auto& sb = b.segments();
  if (sa.size() != sb.size()) {
    return "segment count " + std::to_string(sa.size()) + " vs " +
           std::to_string(sb.size());
  }
  for (std::size_t k = 0; k < sa.size(); ++k) {
    const double lhs[] = {sa[k].x, sa[k].value_at, sa[k].value_after,
                          sa[k].slope};
    const double rhs[] = {sb[k].x, sb[k].value_at, sb[k].value_after,
                          sb[k].slope};
    for (int f = 0; f < 4; ++f) {
      if (std::bit_cast<std::uint64_t>(lhs[f]) !=
          std::bit_cast<std::uint64_t>(rhs[f])) {
        return "segment " + std::to_string(k) + " field " +
               std::to_string(f) + ": " + std::to_string(lhs[f]) + " vs " +
               std::to_string(rhs[f]);
      }
    }
  }
  return "";
}

/// `inc` against `ref` on every curve and bound both expose.
void expect_same_engine(IncrementalDag& inc, const DagModel& ref,
                        const std::string& what) {
  const std::size_t n = ref.dag().nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bit_diff(inc.model().node_arrival(i), ref.node_arrival(i)), "")
        << what << ": arrival of node " << i;
    EXPECT_EQ(bit_diff(inc.model().node_service(i), ref.node_service(i)), "")
        << what << ": service of node " << i;
  }
  const auto got = inc.per_path_analysis();
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
      std::bit_cast<std::uint64_t>(inc.backlog_bound().in_bytes()),
      std::bit_cast<std::uint64_t>(ref.backlog_bound().value.in_bytes()))
      << what << ": backlog";
}

void expect_fresh_matches(const DagSpec& dag, const SourceSpec& src,
                          const ModelPolicy& policy,
                          const std::string& what) {
  IncrementalDag inc(dag, src, policy);
  const DagModel ref(dag, src, policy);
  expect_same_engine(inc, ref, what);
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

TEST(DagEnginePin, EnvelopeHistoryReturnsToTheSeededCurves) {
  const DagSpec dag = multi_entry();
  const SourceSpec src = source(150, 256_KiB);
  const ModelPolicy policy = averaged_policy();
  IncrementalDag inc(dag, src, policy);
  std::vector<Curve> seeded;
  for (std::size_t k = 0; k < dag.entries.size(); ++k) {
    seeded.push_back(inc.entry_envelope(k));
  }

  util::Xoshiro256 rng(kSeed);
  for (int step = 0; step < 24; ++step) {
    const std::size_t k = rng() % dag.entries.size();
    const double rate =
        src.rate.in_bytes_per_sec() * rng.uniform(0.05, 0.6);
    const double burst = src.packet.in_bytes() *
                         static_cast<double>(rng() % 16);
    inc.set_entry_envelope(
        k, packetize_arrival(Curve::affine(rate, burst), src.packet));

    // A fresh instance carrying the same envelopes rebuilds every node.
    IncrementalDag fresh(dag, src, policy);
    for (std::size_t e = 0; e < dag.entries.size(); ++e) {
      fresh.set_entry_envelope(e, inc.entry_envelope(e));
    }
    for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
      EXPECT_EQ(bit_diff(inc.model().node_arrival(i),
                         fresh.model().node_arrival(i)),
                "")
          << "step " << step << ": arrival of node " << i;
      EXPECT_EQ(bit_diff(inc.model().node_service(i),
                         fresh.model().node_service(i)),
                "")
          << "step " << step << ": service of node " << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(inc.delay_bound().in_seconds()),
              std::bit_cast<std::uint64_t>(fresh.delay_bound().in_seconds()))
        << "step " << step;
  }

  for (std::size_t k = 0; k < seeded.size(); ++k) {
    inc.set_entry_envelope(k, seeded[k]);
  }
  expect_same_engine(inc, DagModel(dag, src, policy), "after history");
}

TEST(DagEnginePin, EntryUpdatesMatchAFromScratchModelAtEveryStep) {
  // Each step moves every entry to the envelope a DagModel over a new
  // source seeds, one entry at a time in a random order, refreshing
  // between some of them; the result must be that model, bit for bit. A
  // refresh that fails to carry a change downstream leaves a stale node.
  const DagSpec dag = multi_entry();
  const ModelPolicy policy = averaged_policy();
  IncrementalDag inc(dag, source(150, 256_KiB), policy);
  util::Xoshiro256 rng(kSeed ^ 0x51ULL);
  for (int step = 0; step < 16; ++step) {
    const SourceSpec src =
        source(rng.uniform(20.0, 160.0),
               DataSize::bytes(65536.0 * static_cast<double>(rng() % 8)));
    const IncrementalDag target(dag, src, policy);
    std::vector<std::size_t> order = {0, 1};
    if (rng() % 2 == 0) std::swap(order[0], order[1]);
    for (std::size_t k : order) {
      inc.set_entry_envelope(k, target.entry_envelope(k));
      if (rng() % 2 == 0) (void)inc.refresh();
    }
    expect_same_engine(inc, DagModel(dag, src, policy),
                       "step " + std::to_string(step));
  }
}

}  // namespace
}  // namespace streamcalc::netcalc
