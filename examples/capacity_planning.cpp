// Scenario: capacity planning for the paper's BLAST deployment. Sweeps the
// offered database rate across the three load regimes and reports, for
// each operating point, what the analytic model promises and what the
// simulator (with Mercator-style bounded queues) delivers — the
// "understand performance implications of candidate design changes"
// workflow from the paper's conclusions.
#include <cstdio>

#include "apps/blast.hpp"
#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"

namespace {

int run(const streamcalc::util::Context& ctx) {
  using namespace streamcalc;
  namespace blast = apps::blast;

  std::printf("== Capacity planning: BLAST offered-load sweep ==\n\n");

  const auto nodes = blast::nodes();
  util::Table t({"Offered", "Regime", "Delay bound", "Sim throughput",
                 "Sim worst delay"},
                {util::Align::kRight, util::Align::kLeft, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight});

  for (double offered : {150.0, 250.0, 330.0, 352.0, 500.0, 704.0}) {
    netcalc::SourceSpec src = blast::streaming_source();
    src.rate = util::DataRate::mib_per_sec(offered);
    diagnostics::preflight_pipeline("capacity_planning", nodes, src,
                                    blast::policy(), ctx);
    const netcalc::PipelineModel m(nodes, src, blast::policy());
    certify::postflight_pipeline("capacity_planning", m, ctx);

    auto cfg = blast::sim_config();
    cfg.horizon = util::Duration::seconds(0.8);
    cfg.warmup = util::Duration::seconds(0.2);
    const auto sim = streamsim::simulate(nodes, src, cfg);

    t.add_row({util::format_significant(offered) + " MiB/s",
               to_string(m.load_regime()),
               m.delay_bound().value.is_finite()
                   ? util::format_duration(m.delay_bound().value)
                   : std::string("inf (finite job only)"),
               util::format_rate(sim.throughput),
               util::format_duration(sim.max_delay)});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf(
      "\nReading: up to the ~350 MiB/s bottleneck the pipeline delivers the "
      "offered load with bounded delay; past it the asymptotic bounds "
      "diverge and the backpressured system saturates at the bottleneck "
      "rate while per-job delays grow with queue depth. Provision the FPGA "
      "feed a few percent below the bottleneck for stable latency.\n");
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
