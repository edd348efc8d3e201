// Scenario: a fork-join media pipeline, exercising the DAG extension of
// the model (the paper frames streaming applications as "a chain of nodes
// interconnected into a directed acyclic graph"; this example is a graph
// that is not a chain).
//
//   ingest -> demux --60%--> video_transcode --+--> mux -> publish
//                   \--40%--> audio_filter ----+
//
// The demuxer routes compressed video and audio shares down different
// accelerator branches; the muxer joins them. The DAG model reports
// per-node bounds, per-path delay bounds with residual service at the
// shared muxer, and the DAG simulator cross-checks them.
#include <cstdio>
#include <vector>

#include "netcalc/dag.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"

namespace {

int run(const streamcalc::util::Context& ctx) {
  using namespace streamcalc;
  using namespace util::literals;
  using netcalc::DagSpec;
  using netcalc::NodeKind;
  using netcalc::NodeSpec;

  const auto stage = [](const char* name, double lo, double avg, double hi) {
    return NodeSpec::from_rates(name, NodeKind::kCompute, 64_KiB,
                                util::DataRate::mib_per_sec(lo),
                                util::DataRate::mib_per_sec(avg),
                                util::DataRate::mib_per_sec(hi));
  };

  DagSpec dag;
  dag.nodes = {
      stage("ingest", 500, 550, 600),
      stage("demux", 400, 430, 460),
      stage("video_transcode", 90, 100, 115),   // GPU branch
      stage("audio_filter", 150, 165, 180),     // DSP branch
      stage("mux", 250, 270, 290),
      stage("publish", 300, 320, 340),
  };
  dag.entries = {{0, 0, 1.0}};
  dag.edges = {
      {0, 1, 1.0},   // ingest -> demux
      {1, 2, 0.6},   // demux -> video (60% of bytes)
      {1, 3, 0.4},   // demux -> audio
      {2, 4, 1.0},   // video -> mux
      {3, 4, 1.0},   // audio -> mux
      {4, 5, 1.0},   // mux -> publish
  };

  netcalc::SourceSpec src;
  src.rate = util::DataRate::mib_per_sec(120);
  src.burst = util::DataSize::bytes(0);
  src.packet = 64_KiB;

  std::printf("== Fork-join media pipeline (DAG model) ==\n\n");
  diagnostics::preflight_dag("fork_join_analytics", dag, src, {}, ctx);
  const netcalc::DagModel model(dag, src);
  // Optional post-flight: STREAMCALC_CERTIFY=warn|strict re-verifies every
  // per-node and per-path bound with the exact-rational checker.
  const std::vector<netcalc::DagPathAnalysis> paths =
      model.per_path_analysis();
  certify::postflight_dag("fork_join_analytics", model, paths, ctx);

  util::Table t({"node", "regime", "arrival", "service", "delay", "backlog",
                 "buffer"},
                {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight});
  for (const auto& a : model.per_node_analysis()) {
    t.add_row({a.name, to_string(a.load_regime),
               util::format_rate(a.arrival_rate),
               util::format_rate(a.service_rate),
               util::format_duration(a.delay), util::format_size(a.backlog),
               util::format_size(a.buffer_bytes)});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf("\npath delay bounds (residual service at the shared mux):\n");
  for (const auto& p : paths) {
    std::printf("  ");
    for (std::size_t i : p.nodes) {
      std::printf("%s%s", dag.nodes[i].name.c_str(),
                  i == p.nodes.back() ? "" : " -> ");
    }
    std::printf(":  %s\n", util::format_duration(p.delay).c_str());
  }
  std::printf("end-to-end delay bound: %s; total backlog bound: %s\n",
              util::format_duration(model.delay_bound().value).c_str(),
              util::format_size(model.backlog_bound().value).c_str());

  streamsim::SimConfig cfg;
  cfg.horizon = util::Duration::seconds(2);
  cfg.seed = 11;
  const auto sim = streamsim::simulate_dag(dag, src, cfg);
  std::printf("\nsimulated: throughput %s, delays [%s .. %s], "
              "peak backlog %s\n",
              util::format_rate(sim.throughput).c_str(),
              util::format_duration(sim.min_delay).c_str(),
              util::format_duration(sim.max_delay).c_str(),
              util::format_size(sim.max_backlog).c_str());
  std::printf("within bounds: delay %s, backlog %s\n",
              sim.max_delay <= model.delay_bound().value ? "yes" : "no",
              sim.max_backlog <= model.backlog_bound().value ? "yes" : "no");

  // Branch balance: the video branch carries 60% of the bytes.
  const auto& stats = sim.node_stats;
  const double video_jobs = static_cast<double>(stats[2].jobs);
  const double audio_jobs = static_cast<double>(stats[3].jobs);
  std::printf("video share of demuxed jobs: %.1f%% (configured 60%%)\n",
              100.0 * video_jobs / (video_jobs + audio_jobs));
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
