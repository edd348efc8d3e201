// Scenario: edge sensor aggregation with compression offload — a
// bump-in-the-wire use of the library (paper, Section 5). An edge box
// merges sensor streams, compresses them on a SmartNIC/FPGA, and uplinks
// to the cloud over a constrained WAN. Compression ratio is data-dependent
// (min/avg/max observed), so the uplink sees an uncertain volume; the
// example shows how the two service-curve versions bound the uncertainty
// and compares subset models of the edge and WAN halves.
#include <cstdio>

#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/format.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"

namespace {

int run(const streamcalc::util::Context& ctx) {
  using namespace streamcalc;
  using namespace util::literals;
  using netcalc::NodeKind;
  using netcalc::NodeSpec;
  using netcalc::VolumeRatio;

  netcalc::SourceSpec sensors;
  sensors.rate = util::DataRate::mib_per_sec(40);
  sensors.burst = 512_KiB;
  sensors.packet = 32_KiB;

  std::vector<NodeSpec> pipeline;
  pipeline.push_back(NodeSpec::from_rates(
      "merge", NodeKind::kCompute, 32_KiB, util::DataRate::mib_per_sec(300),
      util::DataRate::mib_per_sec(350), util::DataRate::mib_per_sec(400)));
  {
    // FPGA LZ4: telemetry compresses between 1.5x and 6x, typically 3x.
    NodeSpec compress = NodeSpec::from_rates(
        "fpga_lz4", NodeKind::kCompute, 32_KiB,
        util::DataRate::mib_per_sec(900), util::DataRate::mib_per_sec(1500),
        util::DataRate::mib_per_sec(2200));
    compress.volume = VolumeRatio::from_compression(1.5, 3.0, 6.0);
    compress.aggregates = false;
    compress.latency_override = 5_us;
    pipeline.push_back(compress);
  }
  {
    // Constrained WAN uplink: 25 MiB/s of *compressed* bytes. The 2 ms
    // propagation is pipelined (packets overlap in flight), so it enters
    // as latency_override rather than per-packet service time.
    NodeSpec wan = NodeSpec::link("wan_uplink", NodeKind::kNetworkLink,
                                  util::DataRate::mib_per_sec(25), 32_KiB,
                                  0_ms);
    wan.latency_override = 2_ms;
    pipeline.push_back(wan);
  }
  {
    NodeSpec decompress = NodeSpec::from_rates(
        "cloud_unlz4", NodeKind::kCompute, 32_KiB,
        util::DataRate::mib_per_sec(1200), util::DataRate::mib_per_sec(1400),
        util::DataRate::mib_per_sec(1600));
    decompress.volume = VolumeRatio{1.5, 3.0, 6.0};
    decompress.restores_volume = true;
    pipeline.push_back(decompress);
  }
  pipeline.push_back(NodeSpec::from_rates(
      "ingest", NodeKind::kCompute, 32_KiB,
      util::DataRate::mib_per_sec(200), util::DataRate::mib_per_sec(250),
      util::DataRate::mib_per_sec(300)));

  std::printf("== Sensor aggregation with compression offload ==\n\n");
  // The lint pre-flight flags the worst-case overload below (NC101) —
  // exactly the situation this example studies.
  diagnostics::preflight_pipeline("sensor_compression", pipeline, sensors, {},
                                  ctx);
  const netcalc::PipelineModel model(pipeline, sensors);
  certify::postflight_pipeline("sensor_compression", model, ctx);
  // The WAN carries compressed bytes: worst case (1.5x) it must move 40/1.5
  // = 26.7 MiB/s > 25 — overloaded! Best case (6x) only 6.7 MiB/s.
  std::printf("worst-case compression (1.5x): regime %s — the uplink "
              "guarantees only %s of sensor data\n",
              to_string(model.load_regime()),
              util::format_rate(util::DataRate::bytes_per_sec(
                                    model.service_curve().tail_slope()))
                  .c_str());
  const auto tb = model.throughput_bounds(util::Duration::seconds(5));
  std::printf("5-second window: guaranteed %s .. at most %s (best-case "
              "compression)\n",
              util::format_rate(tb.lower).c_str(),
              util::format_rate(tb.upper).c_str());

  // How big must the edge buffer be to ride out a 10 s worst-case burst?
  const auto growth = netcalc::overload_growth_rate(model.arrival_curve(),
                                                    model.service_curve());
  const auto queue_10s = netcalc::backlog_at(
      model.arrival_curve(), model.service_curve(),
      util::Duration::seconds(10));
  std::printf("\nworst-case queue growth %s; edge buffer for a 10 s burst: "
              "%s\n",
              util::format_rate(growth).c_str(),
              util::format_size(queue_10s).c_str());

  // Subset views: the edge half vs the cloud half.
  const auto edge = model.subrange(0, 3);
  const auto cloud = model.subrange(3, 2);
  std::printf("\nsubset models: edge (merge..wan) fixed latency %s; cloud "
              "(unlz4..ingest) fixed latency %s\n",
              util::format_duration(edge.total_latency()).c_str(),
              util::format_duration(cloud.total_latency()).c_str());

  // Simulate with sampled (data-dependent) ratios.
  streamsim::SimConfig cfg;
  cfg.horizon = util::Duration::seconds(5);
  cfg.warmup = util::Duration::seconds(1);
  cfg.queue_capacity = 64;
  const auto sim = streamsim::simulate(pipeline, sensors, cfg);
  std::printf("\nsimulated with sampled ratios (mean 3x): delivered %s, "
              "peak queue %s — typical data rides well inside the "
              "worst-case provisioning\n",
              util::format_rate(sim.throughput).c_str(),
              util::format_size(sim.max_backlog).c_str());
  return 0;
}

}  // namespace

// The run's configuration is the environment, parsed once here. Surface
// configuration errors (strict lint, bad STREAMCALC_* settings) as a
// one-line message and exit code 1 rather than std::terminate.
int main() {
  try {
    const auto ctx = streamcalc::util::Context::from_env();
    streamcalc::util::Context::install(ctx);
    return run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
