// Quickstart: model a three-stage streaming pipeline with network calculus
// and cross-check the bounds against the discrete-event simulator.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "streamcalc.hpp"

namespace {

int run(const streamcalc::util::Context& ctx) {
  using namespace streamcalc;
  using namespace util::literals;
  using netcalc::NodeKind;
  using netcalc::NodeSpec;

  // 1. Describe each stage from isolated measurements: block sizes and
  //    min/avg/max throughput (or per-block execution-time bounds).
  std::vector<NodeSpec> pipeline{
      NodeSpec::from_rates("parse", NodeKind::kCompute, 64_KiB,
                           util::DataRate::mib_per_sec(220),
                           util::DataRate::mib_per_sec(250),
                           util::DataRate::mib_per_sec(280)),
      NodeSpec::from_rates("transform", NodeKind::kCompute, 64_KiB,
                           util::DataRate::mib_per_sec(120),
                           util::DataRate::mib_per_sec(140),
                           util::DataRate::mib_per_sec(165)),
      NodeSpec::link("uplink", NodeKind::kNetworkLink,
                     util::DataRate::gib_per_sec(1), 64_KiB, 50_us),
  };

  // 2. Describe the offered load: sustained rate, burst, packet size.
  netcalc::SourceSpec source;
  source.rate = util::DataRate::mib_per_sec(100);
  source.burst = 256_KiB;
  source.packet = 64_KiB;

  // 3. Pre-flight lint (nclint), then build the model and read off
  //    the bounds. In the default warn mode findings go to stderr;
  //    STREAMCALC_LINT=strict turns them into hard errors.
  diagnostics::preflight_pipeline("quickstart", pipeline, source, {}, ctx);
  const netcalc::PipelineModel model(pipeline, source);
  // Optional post-flight: STREAMCALC_CERTIFY=warn|strict re-verifies every
  // bound below with the independent exact-rational checker.
  certify::postflight_pipeline("quickstart", model, ctx);
  std::printf("regime:        %s\n", to_string(model.load_regime()));
  std::printf("delay bound:   %s\n",
              util::format_duration(model.delay_bound().value).c_str());
  std::printf("backlog bound: %s\n",
              util::format_size(model.backlog_bound().value).c_str());
  const auto tb = model.throughput_bounds(util::Duration::seconds(1));
  std::printf("throughput over 1 s: guaranteed %s, at most %s\n",
              util::format_rate(tb.lower).c_str(),
              util::format_rate(tb.upper).c_str());
  std::printf("bottleneck stage: %s\n",
              pipeline[model.bottleneck()].name.c_str());

  // 4. Cross-check with the discrete-event simulator (same NodeSpecs).
  streamsim::SimConfig cfg;
  cfg.horizon = util::Duration::seconds(1);
  const auto sim = streamsim::simulate(pipeline, source, cfg);
  std::printf("\nsimulated: throughput %s, delays [%s .. %s], "
              "max backlog %s\n",
              util::format_rate(sim.throughput).c_str(),
              util::format_duration(sim.min_delay).c_str(),
              util::format_duration(sim.max_delay).c_str(),
              util::format_size(sim.max_backlog).c_str());
  std::printf("within bounds: delay %s, backlog %s\n",
              sim.max_delay <= model.delay_bound().value ? "yes" : "no",
              sim.max_backlog <= model.backlog_bound().value ? "yes" : "no");
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
