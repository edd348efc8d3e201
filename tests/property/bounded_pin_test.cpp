// Pins of bounded-queue runs (streamsim SimConfig::queue_capacity finite):
// every SimResult field, as testing::bit_digest of its bit patterns, one
// line per run in golden/bounded_runs.golden. The runs are the shipped
// bounded configurations (the bitw and blast apps' sim_config(),
// bench/buffer_sizing's three runs, the bitw and bitw_x116 specs at their
// capacity, examples/sensor_compression's capacity-64 run, the bounded
// PipelineSim cases) and random bounded chains: capacities 1-8, bursts of
// up to 20 packets, and sampled, Poisson/exponential, deterministic and
// rate-profile runs. An intended change to the bounded simulation
// regenerates the file, and its diff is the review artifact:
//   STREAMCALC_UPDATE_GOLDEN=1 ctest -R BoundedPin
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bitw.hpp"
#include "apps/blast.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "testing/compare.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace streamcalc::testing {
namespace {

using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::SourceSpec;
using netcalc::VolumeRatio;
using streamsim::SimConfig;
using util::DataRate;
using util::DataSize;
using util::Duration;
using util::Xoshiro256;
using namespace util::literals;

/// "<label>: <digest>" for one run.
std::string pin_line(const std::string& label,
                     const std::vector<NodeSpec>& nodes,
                     const SourceSpec& source, const SimConfig& cfg) {
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64,
                bit_digest(streamsim::simulate(nodes, source, cfg)));
  return label + ": " + digest;
}

/// The apps' bounded runs and bench/buffer_sizing's three.
void app_runs(std::vector<std::string>& out) {
  namespace bitw = apps::bitw;
  namespace blast = apps::blast;
  out.push_back(pin_line("bitw throttled", bitw::nodes(),
                         bitw::throttled_source(), bitw::sim_config()));
  out.push_back(pin_line("bitw delay study", bitw::nodes(),
                         bitw::delay_study_source(), bitw::sim_config()));
  out.push_back(pin_line("blast streaming", blast::nodes(),
                         blast::streaming_source(), blast::sim_config()));

  // buffer_sizing: the per-node backlog bounds in whole chunks.
  const auto nodes = bitw::nodes();
  const netcalc::PipelineModel m(nodes, bitw::delay_study_source(),
                                 bitw::policy());
  std::size_t max_chunks = 1;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double chunk = nodes[i].block_in.in_bytes();
    max_chunks = std::max(
        max_chunks,
        static_cast<std::size_t>(std::max(
            1.0, std::ceil(m.per_node_analysis()[i].buffer_bytes.in_bytes() /
                           chunk))));
  }
  for (const std::size_t chunks :
       {SimConfig::kUnlimitedQueue, max_chunks, std::size_t{1}}) {
    SimConfig cfg = bitw::sim_config();
    cfg.queue_capacity = chunks;
    std::string label = "buffer_sizing ";
    label += chunks == SimConfig::kUnlimitedQueue ? std::string("unlimited")
                                                  : std::to_string(chunks);
    out.push_back(pin_line(label, nodes, bitw::delay_study_source(), cfg));
  }
}

cli::Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return cli::parse_spec(text.str());
}

/// The spec's analysis configuration at its capacity over eight seeds,
/// every volume mode, traced and untraced, every fourth deterministic.
void spec_runs(std::vector<std::string>& out, const std::string& name,
               const std::string& path) {
  const cli::Spec spec = load_spec(path);
  for (int k = 0; k < 8; ++k) {
    SimConfig cfg = cli::simulation_config(spec);
    cfg.seed += static_cast<std::uint64_t>(k);
    cfg.volume_mode = static_cast<streamsim::VolumeMode>(k % 4);
    cfg.deterministic = k % 4 == 3;
    cfg.max_trace_samples = k % 2 == 0 ? 0 : 4096;
    std::string label = name;
    label += " seed ";
    label += std::to_string(cfg.seed);
    out.push_back(pin_line(label, spec.nodes, spec.source, cfg));
  }
}

/// examples/sensor_compression's simulation.
void sensor_run(std::vector<std::string>& out) {
  SourceSpec sensors;
  sensors.rate = DataRate::mib_per_sec(40);
  sensors.burst = 512_KiB;
  sensors.packet = 32_KiB;
  std::vector<NodeSpec> pipeline;
  pipeline.push_back(NodeSpec::from_rates(
      "merge", NodeKind::kCompute, 32_KiB, DataRate::mib_per_sec(300),
      DataRate::mib_per_sec(350), DataRate::mib_per_sec(400)));
  NodeSpec compress = NodeSpec::from_rates(
      "fpga_lz4", NodeKind::kCompute, 32_KiB, DataRate::mib_per_sec(900),
      DataRate::mib_per_sec(1500), DataRate::mib_per_sec(2200));
  compress.volume = VolumeRatio::from_compression(1.5, 3.0, 6.0);
  compress.aggregates = false;
  compress.latency_override = 5_us;
  pipeline.push_back(compress);
  NodeSpec wan = NodeSpec::link("wan_uplink", NodeKind::kNetworkLink,
                                DataRate::mib_per_sec(25), 32_KiB, 0_ms);
  wan.latency_override = 2_ms;
  pipeline.push_back(wan);
  NodeSpec decompress = NodeSpec::from_rates(
      "cloud_unlz4", NodeKind::kCompute, 32_KiB, DataRate::mib_per_sec(1200),
      DataRate::mib_per_sec(1400), DataRate::mib_per_sec(1600));
  decompress.volume = VolumeRatio{1.5, 3.0, 6.0};
  decompress.restores_volume = true;
  pipeline.push_back(decompress);
  pipeline.push_back(NodeSpec::from_rates(
      "ingest", NodeKind::kCompute, 32_KiB, DataRate::mib_per_sec(200),
      DataRate::mib_per_sec(250), DataRate::mib_per_sec(300)));
  SimConfig cfg;
  cfg.horizon = Duration::seconds(5);
  cfg.warmup = Duration::seconds(1);
  cfg.queue_capacity = 64;
  out.push_back(pin_line("sensor_compression", pipeline, sensors, cfg));
}

NodeSpec stage(const char* name, double mibps_min, double mibps_avg,
               double mibps_max) {
  return NodeSpec::from_rates(name, NodeKind::kCompute, DataSize::kib(64),
                              DataRate::mib_per_sec(mibps_min),
                              DataRate::mib_per_sec(mibps_avg),
                              DataRate::mib_per_sec(mibps_max));
}

SourceSpec mib_source(double mibps) {
  SourceSpec s;
  s.rate = DataRate::mib_per_sec(mibps);
  s.burst = DataSize::kib(64);
  return s;
}

/// The bounded cases of tests/streamsim/pipeline_sim_test.cpp.
void pipeline_sim_runs(std::vector<std::string>& out) {
  SimConfig c;
  c.horizon = Duration::seconds(2.0);
  c.queue_capacity = 4;
  out.push_back(pin_line("PipelineSim overloaded",
                         {stage("slow", 55, 60, 65)}, mib_source(200), c));

  std::vector<NodeSpec> compress{stage("compress", 500, 550, 600),
                                 stage("slow", 55, 60, 65)};
  compress[0].volume = VolumeRatio::from_compression(1.0, 2.2, 5.3);
  SimConfig worst = c;
  worst.volume_mode = streamsim::VolumeMode::kWorstCase;
  out.push_back(pin_line("PipelineSim worst case", compress, mib_source(200),
                         worst));
  worst.volume_mode = streamsim::VolumeMode::kBestCase;
  out.push_back(pin_line("PipelineSim best case", compress, mib_source(200),
                         worst));

  const std::vector<NodeSpec> fast_slow{stage("fast", 300, 320, 340),
                                        stage("slow", 50, 55, 60)};
  SimConfig shallow = c;
  shallow.queue_capacity = 2;
  out.push_back(pin_line("PipelineSim backpressure", fast_slow,
                         mib_source(200), shallow));

  std::vector<NodeSpec> exact = fast_slow;
  exact[0].volume = VolumeRatio::exact(1.0);
  out.push_back(pin_line("PipelineSim cold", exact, mib_source(100), c));
  SimConfig warm = c;
  warm.warmup = Duration::seconds(1.0);
  out.push_back(pin_line("PipelineSim warm", exact, mib_source(100), warm));

  const std::vector<NodeSpec> two{stage("a", 200, 220, 240),
                                  stage("b", 150, 160, 170)};
  for (const std::size_t cap :
       {std::size_t{4096}, std::size_t{0}, std::size_t{1}}) {
    SimConfig t;
    t.horizon = Duration::seconds(1.0);
    t.queue_capacity = 8;
    t.max_trace_samples = cap;
    std::string label = "PipelineSim trace cap ";
    label += std::to_string(cap);
    out.push_back(pin_line(label, two, mib_source(100), t));
  }
}

double pick(Xoshiro256& rng, std::initializer_list<double> values) {
  const auto i = static_cast<std::size_t>(
      rng.uniform01() * static_cast<double>(values.size()));
  return values.begin()[i];
}

/// A stage serving `offered` bytes/s of its own input at 0.5-1.6x load.
NodeSpec random_node(Xoshiro256& rng, std::string name, double offered) {
  const DataSize block = DataSize::kib(pick(rng, {4, 8, 12, 16, 64}));
  const double avg = offered / rng.uniform(0.5, 1.6);
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

/// Random bounded chains of 1-5 stages, 150-400 expected packets each, in
/// four families: 0 sampled, 1 Poisson arrivals with exponential service,
/// 2 deterministic, 3 a rate profile with idle phases.
void random_runs(std::vector<std::string>& out, int family, int count) {
  for (int k = 0; k < count; ++k) {
    Xoshiro256 rng(0xB0B0 + 7727 * static_cast<std::uint64_t>(k) +
                   static_cast<std::uint64_t>(family));
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
    source.burst =
        DataSize::bytes(packet * pick(rng, {0, 1, 2.5, 6, 12, 20}));

    SimConfig cfg;
    const double h = rng.uniform(150.0, 400.0) * packet / rate;
    cfg.horizon = Duration::seconds(h);
    cfg.warmup = Duration::seconds(h * rng.uniform(0.0, 0.3));
    cfg.seed = rng();
    cfg.queue_capacity = 1 + rng() % 8;
    cfg.volume_mode = static_cast<streamsim::VolumeMode>(rng() % 4);
    cfg.max_trace_samples =
        static_cast<std::size_t>(pick(rng, {4096, 4096, 64, 7, 1, 0}));
    switch (family) {
      case 1:
        cfg.poisson_arrivals = true;
        cfg.service_distribution = streamsim::TimeDistribution::kExponential;
        break;
      case 2:
        cfg.deterministic = true;
        break;
      case 3: {
        double t = 0.0;
        cfg.rate_profile.push_back({0.0, rate * rng.uniform(0.5, 1.5)});
        for (int p = 0; p < 3; ++p) {
          t += h * rng.uniform(0.1, 0.3);
          const double phase =
              rng.uniform01() < 0.4 ? 0.0 : rng.uniform(0.3, 2.0);
          cfg.rate_profile.push_back({t, rate * phase});
        }
        break;
      }
      default:
        break;
    }
    std::string label = "random ";
    label += std::to_string(family);
    label += " ";
    label += std::to_string(k);
    label += " capacity ";
    label += std::to_string(cfg.queue_capacity);
    out.push_back(pin_line(label, nodes, source, cfg));
  }
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string s;
  for (const std::string& l : lines) s += l + "\n";
  return s;
}

TEST(BoundedPin, EveryRunMatchesItsRecordedDigest) {
  std::vector<std::string> lines;
  app_runs(lines);
  spec_runs(lines, "bitw", std::string(SC_SPEC_DIR) + "/bitw.scspec");
  spec_runs(lines, "bitw_x116",
            std::string(SC_CLI_SPEC_DIR) + "/bitw_x116.scspec");
  sensor_run(lines);
  pipeline_sim_runs(lines);
  for (int family = 0; family < 4; ++family) random_runs(lines, family, 250);
  const std::string current = join_lines(lines);
  const std::string path =
      std::string(SC_PIN_GOLDEN_DIR) + "/bounded_runs.golden";

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
