#include "cli/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "certify/postflight.hpp"
#include "cli/lint.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/bounds.hpp"
#include "obs/obs.hpp"
#include "queueing/mm1.hpp"
#include "stochcalc/bounds.hpp"
#include "stochcalc/envelope.hpp"
#include "stochcalc/service.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace streamcalc::cli {

using util::json_number;
using util::json_quote;

namespace {

/// Human label for a report's derivation: "chernoff (theta=3.2e-07)",
/// "det_clamp", "deviation".
std::string provenance_label(const netcalc::BoundProvenance& p) {
  std::string out = to_string(p.method);
  if (p.method == netcalc::BoundMethod::kChernoff) {
    out += " (theta=" + util::format_significant(p.theta, 3) + ")";
  }
  return out;
}

/// Clamps an explicit-source stochastic report by the spec's own sure
/// bound. A spec declares [source] rate/burst as a shaping contract the
/// traffic satisfies *in addition to* the MGF model, so min(Chernoff,
/// sure) is sound here; the model-level API stays unclamped because its
/// explicit arrival is the only premise it is given.
template <class Q>
netcalc::BoundReport<Q> clamp_by_sure(netcalc::BoundReport<Q> stoch,
                                      const netcalc::BoundReport<Q>& sure) {
  if (sure.value < stoch.value) {
    stoch.value = sure.value;
    stoch.provenance = {netcalc::BoundMethod::kDetClamp, 0.0};
  }
  return stoch;
}

/// The per-user MGF arrival a spec describes: the explicit [source] model
/// when one was declared, else the leaky bucket dominating the model's
/// arrival curve (so the fallback agrees with the curve-level epsilon
/// overloads). Aggregation across users is applied by the caller.
stochcalc::Arrival per_user_arrival(const Spec& spec,
                                    const minplus::Curve& alpha) {
  const StochSourceSpec& ss = spec.stoch_source;
  if (ss.model == "onoff") {
    return stochcalc::Arrival::on_off(ss.peak, ss.mean_on, ss.mean_off,
                                      spec.source.packet);
  }
  if (ss.model == "poisson") {
    return stochcalc::Arrival::poisson_packets(ss.lambda, spec.source.packet);
  }
  if (ss.model == "leaky") {
    return stochcalc::Arrival::leaky_bucket(spec.source.rate,
                                            spec.source.burst);
  }
  return netcalc::dominating_arrival(alpha);
}

/// One-line description of the stochastic source for the text reports.
std::string stoch_source_label(const Spec& spec) {
  const StochSourceSpec& ss = spec.stoch_source;
  std::string out =
      ss.model.empty() ? std::string("leaky bucket (from rate/burst)")
                       : ss.model;
  if (ss.users > 1.0) {
    out += " x " + util::format_significant(ss.users, 6) + " users";
  }
  return out;
}

std::string run_dag_report(const Spec& spec, const util::Context& ctx,
                           double epsilon) {
  using util::format_duration;
  using util::format_rate;
  using util::format_size;

  std::ostringstream os;
  const netcalc::DagSpec dag = spec.dag();
  const netcalc::DagModel model(dag, spec.source, spec.policy);
  certify::postflight_dag("analyze", model, ctx);

  os << "pipeline: DAG with " << dag.nodes.size() << " nodes, "
     << dag.edges.size() << " edges, offered "
     << format_rate(spec.source.rate) << "\n\n";

  os << "per-node analysis:\n";
  util::Table t({"node", "regime", "arrival", "service", "delay", "backlog",
                 "buffer"},
                {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight});
  for (const auto& a : model.per_node_analysis()) {
    t.add_row({a.name, to_string(a.load_regime), format_rate(a.arrival_rate),
               format_rate(a.service_rate), format_duration(a.delay),
               format_size(a.backlog), format_size(a.buffer_bytes)});
  }
  os << t.render();

  os << "\npath delay bounds:\n";
  for (const auto& p : model.per_path_analysis()) {
    os << "  ";
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
      os << dag.nodes[p.nodes[i]].name
         << (i + 1 < p.nodes.size() ? " -> " : "");
    }
    os << ": " << format_duration(p.delay) << "\n";
  }
  os << "end-to-end delay bound: " << format_duration(model.delay_bound().value)
     << "; total backlog bound: " << format_size(model.backlog_bound().value)
     << "\n";

  if (epsilon >= 0.0) {
    const netcalc::DelayReport sd = model.delay_bound(epsilon);
    const netcalc::BacklogReport sb = model.backlog_bound(epsilon);
    os << "\nstochastic bounds, P(violation) <= "
       << util::format_significant(epsilon, 3) << ":\n";
    os << "  delay    d <= " << format_duration(sd.value) << "  ["
       << provenance_label(sd.provenance) << "]\n";
    os << "  backlog  x <= " << format_size(sb.value) << "  ["
       << provenance_label(sb.provenance) << "]\n";
  }

  if (spec.analysis.simulate) {
    streamsim::SimConfig cfg;
    cfg.horizon = spec.analysis.horizon;
    cfg.warmup = spec.analysis.horizon / 5.0;
    cfg.seed = spec.analysis.seed;
    cfg.queue_capacity = spec.analysis.queue_capacity;
    const auto sim = streamsim::simulate_dag(dag, spec.source, cfg);
    os << "\nsimulation (seed " << spec.analysis.seed << "):\n";
    os << "  throughput  " << format_rate(sim.throughput) << "\n";
    os << "  delays      [" << format_duration(sim.min_delay) << " .. "
       << format_duration(sim.max_delay) << "]\n";
    os << "  max backlog " << format_size(sim.max_backlog) << "\n";
    os << "  within bounds: delay "
       << (sim.max_delay <= model.delay_bound().value ? "yes" : "NO")
       << ", backlog "
       << (sim.max_backlog <= model.backlog_bound().value ? "yes" : "NO") << "\n";
  }
  return os.str();
}

}  // namespace

std::string run_report(const Spec& spec, const util::Context& ctx,
                       double epsilon) {
  using util::format_duration;
  using util::format_rate;
  using util::format_size;

  SC_OBS_SPAN("cli", "analyze");
  if (spec.is_dag()) return run_dag_report(spec, ctx, epsilon);

  std::ostringstream os;
  const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);
  certify::postflight_pipeline("analyze", model, ctx);

  os << "pipeline: " << spec.nodes.size() << " stages, offered "
     << format_rate(spec.source.rate);
  if (spec.source.job_volume.is_finite()) {
    os << ", job " << format_size(spec.source.job_volume);
  }
  os << "\n";
  os << "regime:   " << to_string(model.load_regime()) << "\n";
  os << "bottleneck: " << spec.nodes[model.bottleneck()].name << "\n\n";

  os << "end-to-end bounds:\n";
  os << "  delay    d <= " << format_duration(model.delay_bound().value) << "\n";
  os << "  backlog  x <= " << format_size(model.backlog_bound().value) << "\n";
  os << "  fixed latency T^tot = " << format_duration(model.total_latency())
     << "\n";
  const auto tb = model.throughput_bounds(spec.analysis.horizon);
  os << "  throughput over " << format_duration(spec.analysis.horizon)
     << ": guaranteed " << format_rate(tb.lower) << ", at most "
     << format_rate(tb.upper) << "\n";

  const auto q = queueing::analyze(spec.nodes, spec.source);
  os << "  M/M/1 roofline: " << format_rate(q.roofline_throughput) << "\n\n";

  if (epsilon >= 0.0) {
    const bool explicit_model = !spec.stoch_source.model.empty();
    const stochcalc::Arrival arrival =
        per_user_arrival(spec, model.arrival_curve())
            .aggregate(spec.stoch_source.users);
    const netcalc::DelayReport sd =
        explicit_model
            ? clamp_by_sure(model.delay_bound(epsilon, arrival),
                            model.delay_bound())
            : model.delay_bound(epsilon);
    const netcalc::BacklogReport sb =
        explicit_model
            ? clamp_by_sure(model.backlog_bound(epsilon, arrival),
                            model.backlog_bound())
            : model.backlog_bound(epsilon);
    os << "stochastic bounds, P(violation) <= "
       << util::format_significant(epsilon, 3) << " (source "
       << stoch_source_label(spec) << "):\n";
    os << "  delay    d <= " << format_duration(sd.value) << "  ["
       << provenance_label(sd.provenance) << "]\n";
    os << "  backlog  x <= " << format_size(sb.value) << "  ["
       << provenance_label(sb.provenance) << "]\n\n";
  }

  os << "per-node analysis:\n";
  util::Table t({"node", "regime", "arrival", "service", "delay", "backlog",
                 "buffer", "agg wait"},
                {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  for (const auto& a : model.per_node_analysis()) {
    t.add_row({a.name, to_string(a.load_regime), format_rate(a.arrival_rate),
               format_rate(a.service_rate), format_duration(a.delay),
               format_size(a.backlog), format_size(a.buffer_bytes),
               format_duration(a.aggregation_wait)});
  }
  os << t.render();

  if (spec.analysis.simulate) {
    streamsim::SimConfig cfg;
    cfg.horizon = spec.analysis.horizon;
    cfg.warmup = spec.analysis.horizon / 5.0;
    cfg.seed = spec.analysis.seed;
    cfg.queue_capacity = spec.analysis.queue_capacity;
    const auto sim = streamsim::simulate(spec.nodes, spec.source, cfg);
    os << "\nsimulation (seed " << spec.analysis.seed << "):\n";
    os << "  throughput  " << format_rate(sim.throughput) << "\n";
    os << "  delays      [" << format_duration(sim.min_delay) << " .. "
       << format_duration(sim.max_delay) << "], mean "
       << format_duration(sim.mean_delay) << "\n";
    os << "  max backlog " << format_size(sim.max_backlog) << "\n";
    os << "  within bounds: delay "
       << (sim.max_delay <= model.delay_bound().value ? "yes" : "NO")
       << ", backlog "
       << (sim.max_backlog <= model.backlog_bound().value ? "yes" : "NO") << "\n";
  }
  return os.str();
}

std::string run_report(const Spec& spec) {
  return run_report(spec, util::Context::active());
}

namespace {

/// Shared "stochastic" JSON object for the analyze --epsilon reports.
std::string stochastic_json(double epsilon, const netcalc::DelayReport& sd,
                            const netcalc::BacklogReport& sb) {
  std::ostringstream os;
  os << "{\"epsilon\": " << json_number(epsilon)
     << ", \"kind\": " << json_quote(to_string(sd.kind))
     << ", \"delay_seconds\": " << json_number(sd.value.in_seconds())
     << ", \"delay_method\": "
     << json_quote(to_string(sd.provenance.method))
     << ", \"delay_theta\": " << json_number(sd.provenance.theta)
     << ", \"backlog_bytes\": " << json_number(sb.value.in_bytes())
     << ", \"backlog_method\": "
     << json_quote(to_string(sb.provenance.method))
     << ", \"backlog_theta\": " << json_number(sb.provenance.theta) << "}";
  return os.str();
}

std::string dag_report_json(const Spec& spec, const util::Context& ctx,
                            double epsilon) {
  const netcalc::DagSpec dag = spec.dag();
  const netcalc::DagModel model(dag, spec.source, spec.policy);
  certify::postflight_dag("analyze", model, ctx);

  std::ostringstream os;
  os << "{\"kind\": \"dag\", \"nodes\": " << dag.nodes.size()
     << ", \"edges\": " << dag.edges.size() << ",\n \"bounds\": {"
     << "\"delay_seconds\": "
     << json_number(model.delay_bound().value.in_seconds())
     << ", \"backlog_bytes\": "
     << json_number(model.backlog_bound().value.in_bytes()) << "},\n";
  if (epsilon >= 0.0) {
    os << " \"stochastic\": "
       << stochastic_json(epsilon, model.delay_bound(epsilon),
                          model.backlog_bound(epsilon))
       << ",\n";
  }
  os << " \"per_node\": [";
  bool first = true;
  for (const auto& a : model.per_node_analysis()) {
    os << (first ? "" : ",") << "\n  {\"name\": " << json_quote(a.name)
       << ", \"regime\": " << json_quote(to_string(a.load_regime))
       << ", \"arrival_bytes_per_sec\": "
       << json_number(a.arrival_rate.in_bytes_per_sec())
       << ", \"service_bytes_per_sec\": "
       << json_number(a.service_rate.in_bytes_per_sec())
       << ", \"delay_seconds\": " << json_number(a.delay.in_seconds())
       << ", \"backlog_bytes\": " << json_number(a.backlog.in_bytes())
       << "}";
    first = false;
  }
  os << "],\n \"paths\": [";
  first = true;
  for (const auto& p : model.per_path_analysis()) {
    os << (first ? "" : ",") << "\n  {\"nodes\": [";
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
      os << (i > 0 ? ", " : "") << json_quote(dag.nodes[p.nodes[i]].name);
    }
    os << "], \"delay_seconds\": " << json_number(p.delay.in_seconds())
       << "}";
    first = false;
  }
  os << "]}\n";
  return os.str();
}

}  // namespace

std::string run_report_json(const Spec& spec, const util::Context& ctx,
                            double epsilon) {
  SC_OBS_SPAN("cli", "analyze");
  if (spec.is_dag()) return dag_report_json(spec, ctx, epsilon);

  const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);
  certify::postflight_pipeline("analyze", model, ctx);

  std::ostringstream os;
  os << "{\"kind\": \"chain\", \"stages\": " << spec.nodes.size()
     << ", \"regime\": " << json_quote(to_string(model.load_regime()))
     << ", \"bottleneck\": "
     << json_quote(spec.nodes[model.bottleneck()].name) << ",\n \"bounds\": {"
     << "\"delay_seconds\": "
     << json_number(model.delay_bound().value.in_seconds())
     << ", \"backlog_bytes\": "
     << json_number(model.backlog_bound().value.in_bytes())
     << ", \"total_latency_seconds\": "
     << json_number(model.total_latency().in_seconds());
  const auto tb = model.throughput_bounds(spec.analysis.horizon);
  os << ", \"throughput_lower_bytes_per_sec\": "
     << json_number(tb.lower.in_bytes_per_sec())
     << ", \"throughput_upper_bytes_per_sec\": "
     << json_number(tb.upper.in_bytes_per_sec()) << "},\n";
  if (epsilon >= 0.0) {
    const bool explicit_model = !spec.stoch_source.model.empty();
    const stochcalc::Arrival arrival =
        per_user_arrival(spec, model.arrival_curve())
            .aggregate(spec.stoch_source.users);
    os << " \"stochastic\": "
       << stochastic_json(epsilon,
                          explicit_model ? model.delay_bound(epsilon, arrival)
                                         : model.delay_bound(epsilon),
                          explicit_model
                              ? model.backlog_bound(epsilon, arrival)
                              : model.backlog_bound(epsilon))
       << ",\n";
  }
  os << " \"per_node\": [";
  bool first = true;
  for (const auto& a : model.per_node_analysis()) {
    os << (first ? "" : ",") << "\n  {\"name\": " << json_quote(a.name)
       << ", \"regime\": " << json_quote(to_string(a.load_regime))
       << ", \"arrival_bytes_per_sec\": "
       << json_number(a.arrival_rate.in_bytes_per_sec())
       << ", \"service_bytes_per_sec\": "
       << json_number(a.service_rate.in_bytes_per_sec())
       << ", \"delay_seconds\": " << json_number(a.delay.in_seconds())
       << ", \"backlog_bytes\": " << json_number(a.backlog.in_bytes())
       << "}";
    first = false;
  }
  os << "]";
  if (spec.analysis.simulate) {
    streamsim::SimConfig cfg;
    cfg.horizon = spec.analysis.horizon;
    cfg.warmup = spec.analysis.horizon / 5.0;
    cfg.seed = spec.analysis.seed;
    cfg.queue_capacity = spec.analysis.queue_capacity;
    const auto sim = streamsim::simulate(spec.nodes, spec.source, cfg);
    os << ",\n \"simulation\": {\"seed\": " << spec.analysis.seed
       << ", \"throughput_bytes_per_sec\": "
       << json_number(sim.throughput.in_bytes_per_sec())
       << ", \"max_delay_seconds\": "
       << json_number(sim.max_delay.in_seconds())
       << ", \"max_backlog_bytes\": "
       << json_number(sim.max_backlog.in_bytes())
       << ", \"delay_within_bound\": "
       << (sim.max_delay <= model.delay_bound().value ? "true" : "false")
       << ", \"backlog_within_bound\": "
       << (sim.max_backlog <= model.backlog_bound().value ? "true" : "false")
       << "}";
  }
  os << "}\n";
  return os.str();
}

std::string run_stoch_report(const Spec& spec, double epsilon, bool json) {
  using util::format_duration;
  using util::format_rate;
  using util::format_size;

  SC_OBS_SPAN("cli", "stoch");
  util::require(!spec.is_dag(), "stoch applies to chain specs only");

  const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);
  const double users = spec.stoch_source.users;
  const stochcalc::Arrival per_user =
      per_user_arrival(spec, model.arrival_curve());
  const stochcalc::Arrival arrival = per_user.aggregate(users);
  const stochcalc::Service service =
      stochcalc::Service::from_curve(model.service_curve());
  const bool explicit_model = !spec.stoch_source.model.empty();

  const netcalc::DelayReport det_d = model.delay_bound();
  const netcalc::BacklogReport det_b = model.backlog_bound();
  const netcalc::DelayReport sd =
      explicit_model
          ? clamp_by_sure(model.delay_bound(epsilon, arrival), det_d)
          : model.delay_bound(epsilon);
  const netcalc::BacklogReport sb =
      explicit_model
          ? clamp_by_sure(model.backlog_bound(epsilon, arrival), det_b)
          : model.backlog_bound(epsilon);
  const double tmax = stochcalc::theta_max(arrival, service);

  std::vector<double> ns{1.0, 10.0, 100.0, 1000.0};
  if (users > 1.0 &&
      std::find(ns.begin(), ns.end(), users) == ns.end()) {
    ns.push_back(users);
    std::sort(ns.begin(), ns.end());
  }
  // Sweep against the *per-user slice* of the pipeline's service: N users
  // share the N-scaled slice, so N = `users` reproduces this pipeline and
  // the gain column isolates pure statistical multiplexing (a base of the
  // full service would fit any single user's peak and pin every gain at
  // 1). With one declared user the slice is the pipeline itself.
  const stochcalc::Service slice =
      users > 1.0 ? service.scaled(1.0 / users) : service;
  const std::vector<stochcalc::ScalingPoint> scaling =
      stochcalc::aggregation_scaling(per_user, slice, epsilon, ns);

  std::ostringstream os;
  if (json) {
    os << "{\"kind\": \"stoch\", \"stages\": " << spec.nodes.size()
       << ", \"source_model\": "
       << json_quote(explicit_model ? spec.stoch_source.model : "leaky")
       << ", \"users\": " << json_number(users)
       << ", \"mean_rate_bytes_per_sec\": "
       << json_number(arrival.mean_rate().in_bytes_per_sec())
       << ", \"peak_rate_bytes_per_sec\": "
       << json_number(arrival.peak_rate().in_bytes_per_sec())
       << ",\n \"service\": {\"rate_bytes_per_sec\": "
       << json_number(service.rate().in_bytes_per_sec())
       << ", \"latency_seconds\": "
       << json_number(service.latency().in_seconds())
       << ", \"theta_max\": " << json_number(tmax) << "},\n"
       << " \"worst_case\": {\"delay_seconds\": "
       << json_number(det_d.value.in_seconds()) << ", \"backlog_bytes\": "
       << json_number(det_b.value.in_bytes()) << "},\n"
       << " \"stochastic\": " << stochastic_json(epsilon, sd, sb) << ",\n"
       << " \"scaling\": [";
    bool first = true;
    for (const stochcalc::ScalingPoint& p : scaling) {
      os << (first ? "" : ",") << "\n  {\"n\": " << json_number(p.n)
         << ", \"delay_seconds\": " << json_number(p.delay.value)
         << ", \"gain\": " << json_number(p.gain) << "}";
      first = false;
    }
    os << "]}\n";
    return os.str();
  }

  os << "stochastic tier: " << spec.nodes.size() << " stages, source "
     << stoch_source_label(spec) << "\n";
  os << "  mean rate " << format_rate(arrival.mean_rate()) << ", peak "
     << format_rate(arrival.peak_rate()) << "\n";
  os << "  service minorant: rate " << format_rate(service.rate())
     << ", latency " << format_duration(service.latency())
     << ", theta domain (0, " << util::format_significant(tmax, 3) << ")\n\n";

  os << "bounds at P(violation) <= " << util::format_significant(epsilon, 3)
     << ":\n";
  util::Table t({"quantity", "worst case", "stochastic", "method"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kLeft});
  t.add_row({"delay", format_duration(det_d.value), format_duration(sd.value),
             provenance_label(sd.provenance)});
  t.add_row({"backlog", format_size(det_b.value), format_size(sb.value),
             provenance_label(sb.provenance)});
  os << t.render();

  os << "\naggregation scaling (N users on an N-scaled server):\n";
  util::Table s({"N", "delay", "gain"},
                {util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  for (const stochcalc::ScalingPoint& p : scaling) {
    s.add_row({util::format_significant(p.n, 6),
               format_duration(util::Duration::seconds(p.delay.value)),
               util::format_significant(p.gain, 3) + "x"});
  }
  os << s.render();
  return os.str();
}

int run_analyze(const Options& opts) {
  const std::string& path = opts.paths.front();
  std::string text;
  if (!read_spec_text(path, text)) return 1;

  try {
    const Spec spec = parse_spec(text);
    diagnostics::preflight(path, lint_spec(spec),
                           diagnostics::lint_mode(opts.ctx));
    const std::string report =
        opts.json ? run_report_json(spec, opts.ctx, opts.epsilon)
                  : run_report(spec, opts.ctx, opts.epsilon);
    std::fputs(report.c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_stoch(const Options& opts) {
  const std::string& path = opts.paths.front();
  std::string text;
  if (!read_spec_text(path, text)) return 1;

  // --epsilon absent: stoch still needs a violation probability to report
  // against, so it defaults to one-in-a-million.
  const double epsilon = opts.epsilon >= 0.0 ? opts.epsilon : 1e-6;
  try {
    const Spec spec = parse_spec(text);
    diagnostics::preflight(path, lint_spec(spec),
                           diagnostics::lint_mode(opts.ctx));
    const std::string report = run_stoch_report(spec, epsilon, opts.json);
    std::fputs(report.c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace streamcalc::cli
