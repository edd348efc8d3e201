// Section 5, points (1) and (2): the bump-in-the-wire end-to-end delay
// bound (paper: 38 us) and backlog bound (paper: 3 KiB), corroborated by
// simulation (paper: delays in [25.7, 36.7] us, max backlog 2 KiB).
#include <cstdio>

#include "apps/bitw.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/pipeline.hpp"
#include "report.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "streamsim/replication.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

int run(const streamcalc::util::Context& ctx) {
  using namespace streamcalc;
  namespace bitw = apps::bitw;

  bench::banner("Section 5 (1)-(2)",
                "Bump-in-the-wire delay and backlog bounds vs simulation");

  const auto nodes = bitw::nodes();
  diagnostics::preflight_pipeline("bitw_delay_backlog", nodes,
                                  bitw::delay_study_source(), bitw::policy(),
                                  ctx);
  const netcalc::PipelineModel model(nodes, bitw::delay_study_source(),
                                     bitw::policy());
  // Post-flight certification (STREAMCALC_CERTIFY=warn|strict): re-verify
  // every bound this bench reports with the exact-rational checker.
  certify::postflight_pipeline("bitw_delay_backlog", model, ctx);
  const auto sim = streamsim::simulate(nodes, bitw::delay_study_source(),
                                       bitw::sim_config());
  const bitw::PaperNumbers p = bitw::paper();

  util::Table t({"Quantity", "Paper", "This reproduction", "vs paper"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  t.add_row({"NC delay bound d",
             util::format_significant(p.delay_bound_us) + " us",
             util::format_duration(model.delay_bound().value),
             bench::versus(model.delay_bound().value.in_micros(),
                           p.delay_bound_us)});
  t.add_row({"Sim longest delay",
             util::format_significant(p.sim_delay_max_us) + " us",
             util::format_duration(sim.max_delay),
             bench::versus(sim.max_delay.in_micros(), p.sim_delay_max_us)});
  t.add_row({"Sim shortest delay",
             util::format_significant(p.sim_delay_min_us) + " us",
             util::format_duration(sim.min_delay),
             bench::versus(sim.min_delay.in_micros(), p.sim_delay_min_us)});
  t.add_separator();
  t.add_row({"NC backlog bound x",
             util::format_significant(p.backlog_bound_kib) + " KiB",
             util::format_size(model.backlog_bound().value),
             bench::versus(model.backlog_bound().value.in_kib(),
                           p.backlog_bound_kib)});
  t.add_row({"Sim max backlog",
             util::format_significant(p.sim_backlog_kib) + " KiB",
             util::format_size(sim.max_backlog),
             bench::versus(sim.max_backlog.in_kib(), p.sim_backlog_kib)});
  std::fputs(t.render().c_str(), stdout);

  std::printf("\nbracketing checks: sim max delay <= bound: %s; "
              "sim max backlog <= bound: %s\n",
              sim.max_delay <= model.delay_bound().value ? "yes" : "NO",
              sim.max_backlog <= model.backlog_bound().value ? "yes" : "NO");
  std::printf("fixed latency component T^tot: %s; offered load: %s\n",
              util::format_duration(model.total_latency()).c_str(),
              util::format_rate(bitw::delay_study_source().rate).c_str());
  std::printf("note: at the sustained 61 MiB/s the encrypt stage's slowest "
              "service exceeds the inter-chunk period, so queue peaks can "
              "exceed the average-rate bound — the R_alpha vs R_beta regime "
              "discussion of Section 3 (see EXPERIMENTS.md).\n");

  // Multi-replication study (concurrent, one DES instance per thread): the
  // simulated delay range is a distributional property, so report it with
  // mean / CI / range across independently-seeded runs.
  streamsim::ReplicationConfig rc;
  rc.replications = 8;
  rc.base_seed = bitw::sim_config().seed;
  const streamsim::ReplicationRunner runner(rc);
  const auto reps =
      runner.run(nodes, bitw::delay_study_source(), bitw::sim_config());
  util::Table r({"Replicated quantity (n=8)", "mean ± 95% CI",
                 "min .. max"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight});
  const auto range = [](const streamsim::SummaryStat& s, double scale) {
    return util::format_significant(s.min * scale) + " .. " +
           util::format_significant(s.max * scale);
  };
  r.add_row({"longest delay (us)",
             bench::mean_ci(reps.max_delay_seconds.mean * 1e6,
                            reps.max_delay_seconds.ci95_half * 1e6),
             range(reps.max_delay_seconds, 1e6)});
  r.add_row({"shortest delay (us)",
             bench::mean_ci(reps.min_delay_seconds.mean * 1e6,
                            reps.min_delay_seconds.ci95_half * 1e6),
             range(reps.min_delay_seconds, 1e6)});
  r.add_row({"max backlog (KiB)",
             bench::mean_ci(reps.max_backlog_bytes.mean / 1024.0,
                            reps.max_backlog_bytes.ci95_half / 1024.0),
             range(reps.max_backlog_bytes, 1.0 / 1024.0)});
  std::printf("\n");
  std::fputs(r.render().c_str(), stdout);
  std::printf("replicated bracketing: worst delay <= bound: %s; "
              "worst backlog <= bound: %s\n",
              reps.worst_delay <= model.delay_bound().value ? "yes" : "NO",
              reps.worst_backlog <= model.backlog_bound().value ? "yes" : "NO");
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
