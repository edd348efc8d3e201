// Scenario: a heterogeneous video-analytics pipeline — the kind of
// streaming application the paper's introduction motivates. Camera frames
// are decoded on the CPU, batched into GPU inference jobs (job-ratio
// aggregation!), annotated, and shipped over PCIe + network. The example
// uses the library to answer three deployment questions:
//
//   1. Can the pipeline keep up with the camera array? (regime analysis)
//   2. What end-to-end latency must the SLA tolerate? (delay bound)
//   3. How much SRAM/DRAM should each stage's queue get? (buffer plan)
#include <cstdio>

#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"

namespace {

int run(const streamcalc::util::Context& ctx) {
  using namespace streamcalc;
  using namespace util::literals;
  using netcalc::NodeKind;
  using netcalc::NodeSpec;
  using netcalc::VolumeRatio;

  // 16 cameras x 25 fps x ~256 KiB compressed frames ~= 100 MiB/s.
  netcalc::SourceSpec cameras;
  cameras.rate = util::DataRate::mib_per_sec(100);
  cameras.burst = 4_MiB;  // all cameras firing a keyframe together
  cameras.packet = 256_KiB;

  std::vector<NodeSpec> pipeline;
  // Decode: 256 KiB frames -> 1.5 MiB raw (volume expands ~6x).
  {
    NodeSpec decode = NodeSpec::from_rates(
        "decode", NodeKind::kCompute, 256_KiB,
        util::DataRate::mib_per_sec(150), util::DataRate::mib_per_sec(180),
        util::DataRate::mib_per_sec(210));
    decode.volume = VolumeRatio::exact(6.0);
    decode.block_out = 1.5_MiB;
    pipeline.push_back(decode);
  }
  // PCIe to the GPU.
  pipeline.push_back(NodeSpec::link("pcie_h2d", NodeKind::kPcieLink,
                                    util::DataRate::gib_per_sec(11), 1.5_MiB,
                                    20_us));
  // GPU inference: batches of 8 frames (12 MiB) per kernel launch — the
  // aggregation the paper's job ratio captures. Emits compact detections.
  {
    NodeSpec infer = NodeSpec::compute("gpu_infer", 12_MiB, 64_KiB, 8_ms,
                                       14_ms);
    infer.volume = VolumeRatio::exact(0.002);  // boxes, not pixels
    pipeline.push_back(infer);
  }
  // Annotate + publish over the network.
  pipeline.push_back(NodeSpec::from_rates(
      "annotate", NodeKind::kCompute, 64_KiB,
      util::DataRate::mib_per_sec(400), util::DataRate::mib_per_sec(500),
      util::DataRate::mib_per_sec(600)));
  pipeline.push_back(NodeSpec::link("publish", NodeKind::kNetworkLink,
                                    util::DataRate::gib_per_sec(1), 64_KiB,
                                    100_us));

  diagnostics::preflight_pipeline("video_analytics", pipeline, cameras, {},
                                  ctx);
  const netcalc::PipelineModel model(pipeline, cameras);
  certify::postflight_pipeline("video_analytics", model, ctx);

  std::printf("== Video analytics deployment study ==\n\n");
  std::printf("1) Sustainability: regime = %s (offered %s, guaranteed "
              "end-to-end rate %s)\n",
              to_string(model.load_regime()),
              util::format_rate(cameras.rate).c_str(),
              util::format_rate(util::DataRate::bytes_per_sec(
                                    model.service_curve().tail_slope()))
                  .c_str());

  std::printf("\n2) Latency SLA: delay bound %s (fixed component %s — "
              "dominated by GPU batch aggregation)\n",
              util::format_duration(model.delay_bound().value).c_str(),
              util::format_duration(model.total_latency()).c_str());
  for (const auto& a : model.per_node_analysis()) {
    if (a.aggregation_wait > util::Duration::seconds(0)) {
      std::printf("   %s waits %s collecting its batch\n", a.name.c_str(),
                  util::format_duration(a.aggregation_wait).c_str());
    }
  }

  std::printf("\n3) Buffer plan (local bytes per stage):\n");
  util::Table t({"Stage", "Buffer"}, {util::Align::kLeft, util::Align::kRight});
  for (const auto& a : model.per_node_analysis()) {
    t.add_row({a.name, util::format_size(a.buffer_bytes)});
  }
  std::fputs(t.render().c_str(), stdout);

  // Validate with the simulator.
  streamsim::SimConfig cfg;
  cfg.horizon = util::Duration::seconds(3);
  cfg.warmup = util::Duration::seconds(1);
  const auto sim = streamsim::simulate(pipeline, cameras, cfg);
  std::printf("\nsimulator cross-check: throughput %s, worst delay %s "
              "(bound %s), peak occupancy %s (bound %s)\n",
              util::format_rate(sim.throughput).c_str(),
              util::format_duration(sim.max_delay).c_str(),
              util::format_duration(model.delay_bound().value).c_str(),
              util::format_size(sim.max_backlog).c_str(),
              util::format_size(model.backlog_bound().value).c_str());
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
