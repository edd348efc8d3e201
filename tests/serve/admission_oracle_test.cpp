// Differential admission oracle: every decision the engine makes from
// its cached/incremental state must equal — to the exact double — a
// from-scratch network-calculus analysis of the same tenant flow set.
//
// Chain scenarios: the engine evaluates (fresh aggregate alpha, catalog's
// load-time beta); the oracle rebuilds the whole PipelineModel per
// decision. The service side of a chain model does not depend on the
// queried arrival envelope, so both paths run the same curves through the
// same kernels and must agree bit for bit — over 200 generated scenarios
// and seeded admit/release histories.
//
// DAG scenarios: the engine keeps a per-tenant IncrementalDag (dirty-set
// downstream recompute); the oracle is a freshly built IncrementalDag
// with the same envelopes (itself pinned against DagModel at
// construction). Equality again means identical doubles, plus the
// incremental instance must actually recompute fewer nodes than
// rebuild-everything would.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli/spec.hpp"
#include "minplus/curve.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/incremental.hpp"
#include "netcalc/packetizer.hpp"
#include "serve/admission.hpp"
#include "serve/catalog.hpp"
#include "testing/generator.hpp"
#include "util/rng.hpp"

namespace streamcalc::serve {
namespace {

constexpr std::uint64_t kSeed = 0xad0155edULL;

/// Wraps a generated chain scenario as a catalog spec.
cli::Spec chain_spec(const testing::Scenario& scenario) {
  cli::Spec spec;
  spec.source = scenario.source;
  spec.nodes = scenario.nodes;
  return spec;
}

/// A random flow whose parameters are scaled to the scenario source, so
/// histories mix admits that clearly fit, clearly don't, and sit near
/// the boundary.
FlowSpec random_flow(util::Xoshiro256& rng, const netcalc::SourceSpec& src) {
  FlowSpec flow;
  const double base = src.rate.in_bytes_per_sec();
  flow.rate = util::DataRate::bytes_per_sec(
      base * (0.05 + 0.30 * static_cast<double>(rng() % 1000) / 1000.0));
  flow.burst = util::DataSize::bytes(
      static_cast<double>(src.packet.in_bytes()) *
      (1.0 + static_cast<double>(rng() % 64)));
  // Targets from "hopeless" to "generous" around typical bound scales.
  const double exponent =
      -5.0 + 6.0 * static_cast<double>(rng() % 1000) / 1000.0;
  flow.delay_target = util::Duration::seconds(std::pow(10.0, exponent));
  return flow;
}

TEST(AdmissionOracle, ChainDecisionsMatchFromScratchAnalysisExactly) {
  testing::ScenarioGenConfig config;
  config.min_stages = 1;
  config.max_stages = 5;
  testing::ScenarioGenerator generator(config, kSeed);
  util::Xoshiro256 rng(kSeed ^ 0x0f0f);

  int admits_checked = 0;
  int accepted = 0;
  for (int s = 0; s < 200; ++s) {
    const testing::Scenario scenario = generator.next();
    const std::string name = "gen" + std::to_string(s);
    auto catalog = std::make_shared<Catalog>(
        make_snapshot(1, {{name, chain_spec(scenario)}}));
    AdmissionEngine engine(catalog, util::Context{});
    const ScenarioModel* model = catalog->snapshot()->find(name);
    ASSERT_NE(model, nullptr);

    // Shadow state the oracle evaluates from scratch.
    std::map<std::string, FlowSpec> shadow;
    const int ops = 8 + static_cast<int>(rng() % 8);
    for (int op = 0; op < ops; ++op) {
      if (!shadow.empty() && rng() % 4 == 0) {
        // Release a random admitted flow; both sides must drop it.
        auto it = shadow.begin();
        std::advance(it, static_cast<long>(rng() % shadow.size()));
        const Decision d = engine.release("tenant", it->first);
        EXPECT_TRUE(d.ok) << scenario.describe();
        shadow.erase(it);
        continue;
      }
      const std::string id = "f" + std::to_string(op);
      const FlowSpec flow = random_flow(rng, scenario.source);

      std::vector<FlowSpec> candidate;
      for (const auto& [fid, f] : shadow) candidate.push_back(f);
      candidate.push_back(flow);
      const Decision oracle =
          AdmissionEngine::oracle_chain_decision(*model, candidate);

      const Decision got = engine.admit("tenant", name, id, flow);
      ++admits_checked;
      ASSERT_TRUE(got.ok) << got.error;
      ASSERT_TRUE(oracle.ok) << oracle.error;
      // Bit-exact agreement: same curves through the same kernels.
      EXPECT_EQ(got.admitted, oracle.admitted)
          << "scenario " << s << " op " << op << ": "
          << scenario.describe();
      EXPECT_EQ(got.delay_bound, oracle.delay_bound)
          << "scenario " << s << " op " << op << ": "
          << scenario.describe();
      if (got.admitted) {
        ++accepted;
        shadow.emplace(id, flow);
      }
    }

    // The steady state must agree with the oracle too.
    std::vector<FlowSpec> current;
    for (const auto& [fid, f] : shadow) current.push_back(f);
    const Decision oracle =
        AdmissionEngine::oracle_chain_decision(*model, current);
    TenantSnapshot snap;
    ASSERT_TRUE(engine.query("tenant", snap).ok);
    EXPECT_EQ(snap.flows.size(), shadow.size());
    EXPECT_EQ(snap.delay_bound, oracle.delay_bound);
  }
  // The histories must actually exercise both outcomes.
  EXPECT_GT(accepted, 50);
  EXPECT_GT(admits_checked - accepted, 50);
}

/// Fork-join DAG catalog spec used by the DAG differential checks.
const char* kDagSpecText =
    "[source]\n"
    "rate = 120 MiB/s\nburst = 0 B\npacket = 64 KiB\n"
    "[node ingest]\n"
    "block_in = 64 KiB\nrate_min = 500 MiB/s\nrate_avg = 550 MiB/s\n"
    "rate_max = 600 MiB/s\n"
    "[node video]\n"
    "block_in = 64 KiB\nrate_min = 90 MiB/s\nrate_avg = 100 MiB/s\n"
    "rate_max = 115 MiB/s\n"
    "[node audio]\n"
    "block_in = 64 KiB\nrate_min = 150 MiB/s\nrate_avg = 165 MiB/s\n"
    "rate_max = 180 MiB/s\n"
    "[node mux]\n"
    "block_in = 64 KiB\nrate_min = 250 MiB/s\nrate_avg = 270 MiB/s\n"
    "rate_max = 290 MiB/s\n"
    "[topology]\n"
    "entry = ingest 1.0\n"
    "edge = ingest video 0.6\n"
    "edge = ingest audio 0.4\n"
    "edge = video mux 1.0\n"
    "edge = audio mux 1.0\n";

TEST(AdmissionOracle, FreshIncrementalDagMatchesDagModel) {
  const cli::Spec spec = cli::parse_spec(kDagSpecText);
  ASSERT_TRUE(spec.is_dag());
  netcalc::IncrementalDag incremental(spec.dag(), spec.source, spec.policy);
  netcalc::DagModel reference(spec.dag(), spec.source, spec.policy);
  EXPECT_EQ(incremental.delay_bound().in_seconds(),
            reference.delay_bound().value.in_seconds());
  EXPECT_EQ(incremental.backlog_bound().in_bytes(),
            reference.backlog_bound().value.in_bytes());
  const auto per_node = reference.per_node_analysis();
  ASSERT_EQ(per_node.size(), spec.dag().nodes.size());
  for (std::size_t i = 0; i < spec.dag().nodes.size(); ++i) {
    EXPECT_EQ(incremental.node_delay(i).in_seconds(),
              per_node[i].delay.in_seconds())
        << "node " << i;
    EXPECT_EQ(incremental.node_backlog(i).in_bytes(),
              per_node[i].backlog.in_bytes())
        << "node " << i;
  }
}

TEST(AdmissionOracle, IncrementalRefreshMatchesFullRecomputeExactly) {
  const cli::Spec spec = cli::parse_spec(kDagSpecText);
  netcalc::IncrementalDag incremental(spec.dag(), spec.source, spec.policy);
  util::Xoshiro256 rng(kSeed ^ 0xdadadada);

  for (int step = 0; step < 40; ++step) {
    const double rate = spec.source.rate.in_bytes_per_sec() *
                        (0.1 + 0.5 * static_cast<double>(rng() % 1000) /
                                   1000.0);
    const double burst =
        static_cast<double>(spec.source.packet.in_bytes()) *
        static_cast<double>(1 + rng() % 32);
    incremental.set_entry_envelope(
        0, netcalc::packetize_arrival(
               minplus::Curve::affine(rate, burst), spec.source.packet));

    // Reference: a brand-new instance with the same envelope.
    netcalc::IncrementalDag fresh(spec.dag(), spec.source, spec.policy);
    fresh.set_entry_envelope(0, incremental.entry_envelope(0));

    EXPECT_EQ(incremental.delay_bound().in_seconds(),
              fresh.delay_bound().in_seconds())
        << "step " << step;
    EXPECT_EQ(incremental.backlog_bound().in_bytes(),
              fresh.backlog_bound().in_bytes())
        << "step " << step;
  }
  // Sanity: the no-op update does not recompute anything.
  const std::uint64_t before = incremental.recompute_count();
  incremental.set_entry_envelope(0, incremental.entry_envelope(0));
  EXPECT_EQ(incremental.refresh(), 0u);
  EXPECT_EQ(incremental.recompute_count(), before);
}

TEST(AdmissionOracle, DagAdmitsMatchFreshIncrementalOracle) {
  const cli::Spec spec = cli::parse_spec(kDagSpecText);
  auto catalog =
      std::make_shared<Catalog>(make_snapshot(1, {{"forkjoin", spec}}));
  AdmissionEngine engine(catalog, util::Context{});
  util::Xoshiro256 rng(kSeed ^ 0xbeef);

  std::map<std::string, FlowSpec> shadow;
  int accepted = 0;
  int rejected = 0;
  for (int op = 0; op < 40; ++op) {
    if (!shadow.empty() && rng() % 4 == 0) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng() % shadow.size()));
      ASSERT_TRUE(engine.release("tenant", it->first).ok);
      shadow.erase(it);
      continue;
    }
    const std::string id = "f" + std::to_string(op);
    FlowSpec flow = random_flow(rng, spec.source);
    flow.entry = "ingest";

    // Oracle: a brand-new IncrementalDag carrying the candidate set.
    std::vector<FlowSpec> candidate;
    for (const auto& [fid, f] : shadow) candidate.push_back(f);
    candidate.push_back(flow);
    netcalc::IncrementalDag oracle(spec.dag(), spec.source, spec.policy);
    oracle.set_entry_envelope(
        0, AdmissionEngine::aggregate_arrival(candidate, spec.source));
    const double oracle_delay =
        oracle.delay_bound_from(oracle.entry_node(0)).in_seconds();
    bool oracle_admit = true;
    for (const FlowSpec& f : candidate) {
      if (!(oracle_delay <= f.delay_target.in_seconds())) oracle_admit = false;
    }

    const Decision got = engine.admit("tenant", "forkjoin", id, flow);
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.admitted, oracle_admit) << "op " << op;
    EXPECT_EQ(got.delay_bound.in_seconds(), oracle_delay) << "op " << op;
    if (got.admitted) {
      shadow.emplace(id, flow);
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(AdmissionOracle, IncrementalDagRecomputesOnlyTheDirtyCone) {
  const cli::Spec spec = cli::parse_spec(kDagSpecText);
  netcalc::IncrementalDag dag(spec.dag(), spec.source, spec.policy);
  (void)dag.refresh();  // settle construction
  const std::size_t nodes = spec.dag().nodes.size();

  const std::uint64_t before = dag.recompute_count();
  dag.set_entry_envelope(
      0, netcalc::packetize_arrival(
             minplus::Curve::affine(
                 spec.source.rate.in_bytes_per_sec() * 0.25, 65536.0),
             spec.source.packet));
  (void)dag.refresh();
  const std::uint64_t touched = dag.recompute_count() - before;
  // The update can touch at most the entry's downstream cone — here the
  // whole graph — but a second identical update must touch nothing.
  EXPECT_LE(touched, nodes);
  const std::uint64_t again = dag.recompute_count();
  dag.set_entry_envelope(0, dag.entry_envelope(0));
  (void)dag.refresh();
  EXPECT_EQ(dag.recompute_count(), again);
}

}  // namespace
}  // namespace streamcalc::serve
