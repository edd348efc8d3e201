// Differential admission oracle: every decision the engine makes must
// equal — to the exact double — a from-scratch network-calculus analysis
// of the same tenant flow set.
//
// Chain scenarios: the engine evaluates (fresh aggregate alpha, catalog's
// load-time beta); the oracle rebuilds the whole PipelineModel per
// decision. The service side of a chain model does not depend on the
// queried arrival envelope, so both paths run the same curves through the
// same kernels and must agree bit for bit — over 200 generated scenarios
// and seeded admit/release histories.
//
// DAG scenarios: the engine builds a DagModel per decision from the
// tenant's flows; the oracle builds its own DagModel with the same entry
// envelopes (DagModel::with_entry_arrivals, itself pinned against the
// source-seeded constructor in tests/netcalc/dag_engine_pin_test.cpp).
// Equality again means identical doubles.
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

/// The from-scratch bound for `flows` entering the fork-join's one entry:
/// the worst delay over the paths from that entry, in a DagModel fed by
/// the flows' aggregate envelope.
double oracle_dag_delay(const cli::Spec& spec,
                        const std::vector<FlowSpec>& flows) {
  const netcalc::DagSpec dag = spec.dag();
  const netcalc::DagModel model = netcalc::DagModel::with_entry_arrivals(
      dag, spec.source, spec.policy,
      {AdmissionEngine::aggregate_arrival(flows, spec.source)});
  return netcalc::delay_bounds_by_head(model.per_path_analysis(),
                                       dag.nodes.size())[dag.entries[0].to]
      .in_seconds();
}

TEST(AdmissionOracle, DagAdmitsMatchFreshIncrementalOracle) {
  const cli::Spec spec = cli::parse_spec(kDagSpecText);
  auto catalog =
      std::make_shared<Catalog>(make_snapshot(1, {{"forkjoin", spec}}));
  AdmissionEngine engine(catalog, util::Context{});
  util::Xoshiro256 rng(kSeed ^ 0xbeef);

  std::map<std::string, FlowSpec> shadow;
  const auto admitted_flows = [&] {
    std::vector<FlowSpec> flows;
    for (const auto& [fid, f] : shadow) flows.push_back(f);
    return flows;
  };
  int accepted = 0;
  int rejected = 0;
  for (int op = 0; op < 40; ++op) {
    if (!shadow.empty() && rng() % 4 == 0) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng() % shadow.size()));
      const Decision d = engine.release("tenant", it->first);
      ASSERT_TRUE(d.ok) << d.error;
      shadow.erase(it);
      // The post-release bound is the remaining set's (0 with no flows).
      EXPECT_EQ(d.delay_bound.in_seconds(),
                shadow.empty() ? 0.0 : oracle_dag_delay(spec, admitted_flows()))
          << "release at op " << op;
      continue;
    }
    const std::string id = "f" + std::to_string(op);
    FlowSpec flow = random_flow(rng, spec.source);
    flow.entry = "ingest";

    // Oracle: a brand-new DagModel carrying the candidate set.
    std::vector<FlowSpec> candidate = admitted_flows();
    candidate.push_back(flow);
    const double oracle_delay = oracle_dag_delay(spec, candidate);
    bool oracle_admit = true;
    for (const FlowSpec& f : candidate) {
      if (!(oracle_delay <= f.delay_target.in_seconds())) oracle_admit = false;
    }

    // Every third admit also certifies the candidate model strictly; the
    // decision must not change.
    const Decision got =
        engine.admit("tenant", "forkjoin", id, flow, op % 3 == 0);
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

  // A query right after the history reports the committed set's bound.
  TenantSnapshot snap;
  ASSERT_TRUE(engine.query("tenant", snap).ok);
  EXPECT_EQ(snap.flows.size(), shadow.size());
  EXPECT_EQ(snap.delay_bound.in_seconds(),
            shadow.empty() ? 0.0 : oracle_dag_delay(spec, admitted_flows()));
}

}  // namespace
}  // namespace streamcalc::serve
