// Section 4, points (1) and (2): the BLAST end-to-end virtual-delay bound
// (paper: 46.9 ms) and data-occupancy/backlog bound (paper: 20.6 MiB),
// corroborated by the discrete-event simulation (paper: delays in
// [40.7, 46.4] ms, max backlog 20.1 "KiB" — see the EXPERIMENTS.md note on
// that unit).
//
// The offered FPGA rate (704 MiB/s) exceeds the bottleneck (~350 MiB/s),
// so the asymptotic NC bounds are infinite; following the paper's
// "as a job traverses the system" reading, the bounds below are computed
// for one finite database-search job (Section 3's hypothesis).
#include <cstdio>

#include "apps/blast.hpp"
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
  namespace blast = apps::blast;

  bench::banner("Section 4 (1)-(2)",
                "BLAST virtual delay and backlog bounds vs simulation");

  const auto nodes = blast::nodes();
  // Pre-flight lint: the streaming source intentionally overloads the
  // bottleneck (the paper's regime), so warn mode reports NC101 for the
  // streaming study while the finite-job model below stays quiet about
  // asymptotics it never uses.
  diagnostics::preflight_pipeline("blast_delay_backlog", nodes,
                                  blast::job_source(), blast::policy(), ctx);
  const netcalc::PipelineModel job_model(nodes, blast::job_source(),
                                         blast::policy());
  // Post-flight certification (STREAMCALC_CERTIFY=warn|strict): re-verify
  // every bound this bench reports with the exact-rational checker.
  certify::postflight_pipeline("blast_delay_backlog", job_model, ctx);
  const auto sim = streamsim::simulate(nodes, blast::streaming_source(),
                                       blast::sim_config());
  const blast::PaperNumbers p = blast::paper();

  util::Table t({"Quantity", "Paper", "This reproduction", "vs paper"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  t.add_row({"NC delay bound d",
             util::format_significant(p.delay_bound_ms) + " ms",
             util::format_duration(job_model.delay_bound().value),
             bench::versus(job_model.delay_bound().value.in_millis(),
                           p.delay_bound_ms)});
  t.add_row({"Sim longest delay",
             util::format_significant(p.sim_delay_max_ms) + " ms",
             util::format_duration(sim.max_delay),
             bench::versus(sim.max_delay.in_millis(), p.sim_delay_max_ms)});
  t.add_row({"Sim shortest delay",
             util::format_significant(p.sim_delay_min_ms) + " ms",
             util::format_duration(sim.min_delay),
             bench::versus(sim.min_delay.in_millis(), p.sim_delay_min_ms)});
  t.add_separator();
  // The paper's 20.6 MiB backlog is reproduced exactly by the model WITH
  // per-node packetizer adjustments, while its 46.9 ms delay matches the
  // collapsed (non-packetized) model — evidently the paper's backlog
  // calculation included the packetizer terms and the delay did not.
  netcalc::ModelPolicy packetized = blast::policy();
  packetized.packetize = true;
  const netcalc::PipelineModel pk_model(nodes, blast::job_source(),
                                        packetized);
  t.add_row({"NC backlog bound x (packetized)",
             util::format_significant(p.backlog_bound_mib) + " MiB",
             util::format_size(pk_model.backlog_bound().value),
             bench::versus(pk_model.backlog_bound().value.in_mib(),
                           p.backlog_bound_mib)});
  t.add_row({"NC backlog bound x (collapsed)", "-",
             util::format_size(job_model.backlog_bound().value),
             bench::versus(job_model.backlog_bound().value.in_mib(),
                           p.backlog_bound_mib)});
  t.add_row({"Sim max backlog",
             util::format_significant(p.sim_backlog_mib) + " MiB*",
             util::format_size(sim.max_backlog),
             bench::versus(sim.max_backlog.in_mib(), p.sim_backlog_mib)});
  std::fputs(t.render().c_str(), stdout);
  std::printf("* printed as \"20.1 KiB\" in the paper; the MiB reading fits "
              "the 20.6 MiB bound (see EXPERIMENTS.md).\n");

  std::printf("\nbracketing checks: sim max delay <= bound: %s; "
              "sim max backlog <= bound: %s\n",
              sim.max_delay <= job_model.delay_bound().value ? "yes" : "NO",
              sim.max_backlog <= job_model.backlog_bound().value ? "yes" : "NO");
  std::printf("job volume: %s; fixed latency component T^tot: %s\n",
              util::format_size(blast::job_source().job_volume).c_str(),
              util::format_duration(job_model.total_latency()).c_str());

  // Multi-replication study: independently-seeded DES runs (concurrent, one
  // Simulation per thread) replace the single-run point estimates with
  // mean / CI / range statistics, and bound-bracketing is checked against
  // the worst replication rather than one sample.
  streamsim::ReplicationConfig rc;
  rc.replications = 8;
  rc.base_seed = blast::sim_config().seed;
  const streamsim::ReplicationRunner runner(rc);
  const auto reps =
      runner.run(nodes, blast::streaming_source(), blast::sim_config());
  util::Table r({"Replicated quantity (n=8)", "mean ± 95% CI",
                 "min .. max"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight});
  const auto range = [](const streamsim::SummaryStat& s, double scale) {
    return util::format_significant(s.min * scale) + " .. " +
           util::format_significant(s.max * scale);
  };
  r.add_row({"longest delay (ms)",
             bench::mean_ci(reps.max_delay_seconds.mean * 1e3,
                            reps.max_delay_seconds.ci95_half * 1e3),
             range(reps.max_delay_seconds, 1e3)});
  r.add_row({"shortest delay (ms)",
             bench::mean_ci(reps.min_delay_seconds.mean * 1e3,
                            reps.min_delay_seconds.ci95_half * 1e3),
             range(reps.min_delay_seconds, 1e3)});
  r.add_row({"max backlog (MiB)",
             bench::mean_ci(reps.max_backlog_bytes.mean / (1024.0 * 1024.0),
                            reps.max_backlog_bytes.ci95_half /
                                (1024.0 * 1024.0)),
             range(reps.max_backlog_bytes, 1.0 / (1024.0 * 1024.0))});
  r.add_row({"throughput (MiB/s)",
             bench::mean_ci(reps.throughput_bytes_per_sec.mean /
                                (1024.0 * 1024.0),
                            reps.throughput_bytes_per_sec.ci95_half /
                                (1024.0 * 1024.0)),
             range(reps.throughput_bytes_per_sec, 1.0 / (1024.0 * 1024.0))});
  std::printf("\n");
  std::fputs(r.render().c_str(), stdout);
  std::printf("replicated bracketing: worst delay <= bound: %s; "
              "worst backlog <= bound: %s\n",
              reps.worst_delay <= job_model.delay_bound().value ? "yes" : "NO",
              reps.worst_backlog <= job_model.backlog_bound().value ? "yes" : "NO");
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
