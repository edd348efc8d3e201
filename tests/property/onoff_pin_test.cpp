// Pins of the on/off source population (streamsim SimConfig::onoff_users):
// every SimResult field of on/off-fed chains, as testing::bit_digest of
// its bit patterns, one line per run in golden/onoff_runs.golden. The runs
// are the stochastic oracle's scenarios (both of its generators, each at
// three seeds) and random chains that reach what those scenarios do not:
// aggregation, block misalignment, volume changes, restoring stages, short
// on-periods, small trace caps, and the source fields that on/off users
// replace (burst, rate profile, Poisson gaps). An intended change to the
// on/off source regenerates the file, and its diff is the review artifact:
//   STREAMCALC_UPDATE_GOLDEN=1 ctest -R OnOffPin
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "streamsim/pipeline_sim.hpp"
#include "testing/compare.hpp"
#include "testing/generator.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace streamcalc::testing {
namespace {

using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::SourceSpec;
using streamsim::SimConfig;
using util::DataRate;
using util::DataSize;
using util::Duration;
using util::Xoshiro256;

/// "<label>: <digest>" for one run.
std::string pin_line(const std::string& label,
                     const std::vector<NodeSpec>& nodes,
                     const SourceSpec& source, const SimConfig& cfg) {
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64,
                bit_digest(streamsim::simulate(nodes, source, cfg)));
  return label + ": " + digest;
}

void set_users(SimConfig& cfg, const OnOffScenario& sc) {
  cfg.onoff_users = sc.users;
  cfg.onoff_peak = sc.peak;
  cfg.onoff_mean_on = sc.mean_on;
  cfg.onoff_mean_off = sc.mean_off;
}

/// The stochastic oracle's runs (tests/property/stoch_oracle_test.cpp) at
/// its default budget: `count` scenarios of `seed`'s generator, each
/// simulated over `packets` expected packets at three seeds.
void oracle_runs(std::vector<std::string>& out, const char* name,
                 std::uint64_t seed, int max_stages, int count,
                 double packets, double warmup_share) {
  ScenarioGenConfig gen;
  gen.volume_changes = false;
  gen.aggregation = false;
  gen.max_stages = max_stages;
  ScenarioGenerator scenarios(gen, seed);
  for (int i = 0; i < count; ++i) {
    const OnOffScenario sc =
        dress_with_on_off(scenarios.next(), scenarios.rng());
    const double packet_rate = sc.base.source.rate.in_bytes_per_sec() /
                               sc.base.source.packet.in_bytes();
    const double horizon_s = packets / packet_rate;
    for (std::uint64_t k = 0; k < 3; ++k) {
      SimConfig cfg;
      cfg.horizon = Duration::seconds(horizon_s);
      cfg.warmup = Duration::seconds(warmup_share * horizon_s);
      cfg.seed = seed + static_cast<std::uint64_t>(i) + 1000003 * k;
      cfg.max_trace_samples = 16384;
      set_users(cfg, sc);
      std::string label = name;
      label += " ";
      label += std::to_string(i);
      label += " seed ";
      label += std::to_string(cfg.seed);
      out.push_back(pin_line(label, sc.base.nodes, sc.base.source, cfg));
    }
  }
}

double pick(Xoshiro256& rng, std::initializer_list<double> values) {
  const auto i = static_cast<std::size_t>(
      rng.uniform01() * static_cast<double>(values.size()));
  return values.begin()[i];
}

/// A stage serving `offered` bytes/s of its own input at 0.5-1.3x load.
NodeSpec random_node(Xoshiro256& rng, std::string name, double offered) {
  const DataSize block = DataSize::kib(pick(rng, {4, 8, 12, 16, 64}));
  const double avg = offered / rng.uniform(0.5, 1.3);
  NodeSpec n = NodeSpec::from_rates(
      std::move(name), NodeKind::kCompute, block,
      DataRate::bytes_per_sec(avg * rng.uniform(0.6, 0.95)),
      DataRate::bytes_per_sec(avg),
      DataRate::bytes_per_sec(avg * rng.uniform(1.05, 1.5)));
  if (rng.uniform01() < 0.4) {
    n.block_out = DataSize::kib(pick(rng, {2, 5, 8, 16, 32}));
  }
  n.aggregates = rng.uniform01() < 0.6;
  if (rng.uniform01() < 0.4) {
    const double lo = rng.uniform(0.3, 1.0);
    const double mid = rng.uniform(lo, 1.4);
    n.volume = {lo, mid, rng.uniform(mid, 2.0)};
  }
  n.restores_volume = rng.uniform01() < 0.15;
  return n;
}

/// Random on/off chains of 1-5 stages and 1-12 users, 150-400 expected
/// packets each.
void random_runs(std::vector<std::string>& out, int count) {
  for (int k = 0; k < count; ++k) {
    Xoshiro256 rng(0x0F0F + 6151 * static_cast<std::uint64_t>(k));
    const double rate =
        DataRate::mib_per_sec(rng.uniform(10.0, 100.0)).in_bytes_per_sec();
    SourceSpec source;
    source.rate = DataRate::bytes_per_sec(rate);
    source.packet = DataSize::kib(pick(rng, {0, 4, 16, 64}));
    std::vector<NodeSpec> nodes;
    const auto hops = static_cast<int>(rng.uniform(1.0, 5.99));
    double offered = rate;
    for (int i = 0; i < hops; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      nodes.push_back(random_node(rng, std::move(name), offered));
      const NodeSpec& n = nodes.back();
      offered = n.restores_volume ? offered : offered * n.volume.avg;
    }
    const double packet = source.packet.in_bytes() > 0.0
                              ? source.packet.in_bytes()
                              : nodes.front().block_in.in_bytes();
    source.burst = DataSize::bytes(packet * pick(rng, {0, 0, 1, 2.5}));

    SimConfig cfg;
    const double h = rng.uniform(150.0, 400.0) * packet / rate;
    cfg.horizon = Duration::seconds(h);
    cfg.warmup = Duration::seconds(h * rng.uniform(0.0, 0.3));
    cfg.seed = rng();
    cfg.volume_mode = static_cast<streamsim::VolumeMode>(rng() % 4);
    cfg.deterministic = rng.uniform01() < 0.2;
    if (rng.uniform01() < 0.3) {
      cfg.service_distribution = streamsim::TimeDistribution::kExponential;
    }
    cfg.poisson_arrivals = rng.uniform01() < 0.2;
    if (rng.uniform01() < 0.2) {
      cfg.rate_profile = {{0.0, rate}, {h * 0.5, 0.0}};
    }
    cfg.max_trace_samples =
        static_cast<std::size_t>(pick(rng, {4096, 4096, 64, 7, 1, 0}));
    cfg.onoff_users = static_cast<std::size_t>(rng.uniform(1.0, 12.99));
    const double duty = rng.uniform(0.1, 0.7);
    const double peak =
        rate / (static_cast<double>(cfg.onoff_users) * duty);
    cfg.onoff_peak = DataRate::bytes_per_sec(peak);
    // 0.3-40 windows per on-period: short ones often end mid-window.
    const double on = packet / peak * rng.uniform(0.3, 40.0);
    cfg.onoff_mean_on = Duration::seconds(on);
    cfg.onoff_mean_off = Duration::seconds(on * (1.0 - duty) / duty);

    std::string label = "random ";
    label += std::to_string(k);
    label += " users ";
    label += std::to_string(cfg.onoff_users);
    out.push_back(pin_line(label, nodes, source, cfg));
  }
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string s;
  for (const std::string& l : lines) s += l + "\n";
  return s;
}

TEST(OnOffPin, EveryRunMatchesItsRecordedDigest) {
  std::vector<std::string> lines;
  oracle_runs(lines, "chernoff", 0x0dac1e01, 4, 200, 4000.0, 0.1);
  oracle_runs(lines, "sure", 0x0dac1e02, 3, 20, 2000.0, 0.0);
  random_runs(lines, 40);
  const std::string current = join_lines(lines);
  const std::string path =
      std::string(SC_PIN_GOLDEN_DIR) + "/onoff_runs.golden";

  if (util::env_raw("STREAMCALC_UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::vector<std::string> stored;
  for (std::string line; std::getline(in, line);) stored.push_back(line);
  ASSERT_EQ(stored.size(), lines.size()) << path;
  int differing = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (stored[i] != lines[i] && ++differing <= 10) {
      ADD_FAILURE() << "recorded " << stored[i] << "\n     now " << lines[i];
    }
  }
  EXPECT_EQ(differing, 0) << "of " << lines.size() << " runs";
}

}  // namespace
}  // namespace streamcalc::testing
