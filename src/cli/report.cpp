#include "cli/report.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "certify/postflight.hpp"
#include "cli/lint.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/dag.hpp"
#include "obs/obs.hpp"
#include "queueing/mm1.hpp"
#include "stochcalc/bounds.hpp"
#include "stochcalc/envelope.hpp"
#include "stochcalc/service.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace streamcalc::cli {

using util::format_duration;
using util::format_rate;
using util::format_size;

namespace {

/// The report under construction: `os << …` appends to one string, with
/// no stream. Quantities print as util::format_* prints them (3 digits).
class Out {
 public:
  Out& operator<<(std::string_view s) {
    text_ += s;
    return *this;
  }
  Out& operator<<(char c) {
    text_ += c;
    return *this;
  }
  template <std::unsigned_integral N>
  Out& operator<<(N n) {
    char buf[24];
    text_.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
    return *this;
  }
  Out& operator<<(util::DataRate r) {
    util::append_rate(text_, r);
    return *this;
  }
  Out& operator<<(util::DataSize s) {
    util::append_size(text_, s);
    return *this;
  }
  Out& operator<<(util::Duration d) {
    util::append_duration(text_, d);
    return *this;
  }
  Out& operator<<(const util::Table& t) {
    t.append_to(text_);
    return *this;
  }
  /// Lets a helper append to the text directly: os << [&](std::string& s).
  template <std::invocable<std::string&> F>
  Out& operator<<(F&& append) {
    append(text_);
    return *this;
  }

  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

/// `v` with `digits` significant digits (util::format_significant).
auto significant(double v, int digits = 3) {
  return [=](std::string& s) { util::append_significant(s, v, digits); };
}

/// `v` as a JSON number (util::json_number).
auto json(double v) {
  return [=](std::string& s) { util::append_json_number(s, v); };
}

/// `text` as a JSON string (util::json_quote).
auto json(std::string_view text) {
  return [=](std::string& s) { util::append_json_quote(s, text); };
}

// --- compute ----------------------------------------------------------------

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

/// One-line description of the stochastic source.
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

template <class Q>
netcalc::BoundReport<Q> clamp_by_sure(netcalc::BoundReport<Q> stoch,
                                      const netcalc::BoundReport<Q>& sure) {
  if (sure.value < stoch.value) {
    stoch.value = sure.value;
    stoch.provenance = {netcalc::BoundMethod::kDetClamp, 0.0};
  }
  return stoch;
}

/// A chain spec's bounds at `epsilon`. With an explicit [source] model:
/// the Chernoff bounds of `arrival` (the per-user model aggregated over
/// the users), clamped by the sure bounds. A spec declares [source]
/// rate/burst as a shaping contract the traffic satisfies *in addition
/// to* the MGF model, so min(Chernoff, sure) is sound here; the
/// model-level API stays unclamped because its explicit arrival is the
/// only premise it is given. Without a model: the model's own bounds.
StochasticBounds stochastic_bounds(const Spec& spec,
                                   const netcalc::PipelineModel& model,
                                   const stochcalc::Arrival& arrival,
                                   double epsilon,
                                   const netcalc::DelayReport& sure_delay,
                                   const netcalc::BacklogReport& sure_backlog) {
  if (spec.stoch_source.model.empty()) {
    return {model.delay_bound(epsilon), model.backlog_bound(epsilon),
            stoch_source_label(spec)};
  }
  return {clamp_by_sure(model.delay_bound(epsilon, arrival), sure_delay),
          clamp_by_sure(model.backlog_bound(epsilon, arrival), sure_backlog),
          stoch_source_label(spec)};
}

netcalc::PipelineModel chain_model(const Spec& spec) {
  SC_OBS_SPAN("cli", "model");
  return netcalc::PipelineModel(spec.nodes, spec.source, spec.policy);
}

/// Simulates the spec (the chain, or `dag` when given) and checks the run
/// against the sure bounds already in `a`.
SimulationCheck simulation_check(const Spec& spec, const Analysis& a,
                                 const netcalc::DagSpec* dag) {
  SC_OBS_SPAN("cli", "simulate");
  const streamsim::SimConfig cfg = simulation_config(spec);
  streamsim::SimResult sim =
      dag != nullptr ? streamsim::simulate_dag(*dag, spec.source, cfg)
                     : streamsim::simulate(spec.nodes, spec.source, cfg);
  const bool delay_ok = sim.max_delay <= a.delay.value;
  const bool backlog_ok = sim.max_backlog <= a.backlog.value;
  return {spec.analysis.seed, std::move(sim), delay_ok, backlog_ok};
}

Analysis compute_chain(const Spec& spec, const util::Context& ctx,
                       double epsilon) {
  const netcalc::PipelineModel model = chain_model(spec);
  certify::postflight_pipeline("analyze", model, ctx);

  Analysis a;
  a.offered = spec.source.rate;
  {
    SC_OBS_SPAN("cli", "bounds");
    a.delay = model.delay_bound();
    a.backlog = model.backlog_bound();
    ChainFacts& c = a.chain.emplace();
    c.regime = model.load_regime();
    c.bottleneck = spec.nodes[model.bottleneck()].name;
    c.job_volume = spec.source.job_volume;
    c.total_latency = model.total_latency();
    c.horizon = spec.analysis.horizon;
    c.throughput = model.throughput_bounds(c.horizon);
    c.mm1_roofline =
        queueing::analyze(spec.nodes, spec.source).roofline_throughput;
    a.per_node = model.per_node_analysis();
  }
  if (epsilon >= 0.0) {
    SC_OBS_SPAN("cli", "stochastic");
    const stochcalc::Arrival arrival =
        per_user_arrival(spec, model.arrival_curve())
            .aggregate(spec.stoch_source.users);
    a.stochastic = stochastic_bounds(spec, model, arrival, epsilon, a.delay,
                                     a.backlog);
  }
  if (spec.analysis.simulate) a.simulation = simulation_check(spec, a, nullptr);
  return a;
}

Analysis compute_dag(const Spec& spec, const util::Context& ctx,
                     double epsilon) {
  const netcalc::DagModel model = [&] {
    SC_OBS_SPAN("cli", "model");
    return netcalc::DagModel(spec.dag(), spec.source, spec.policy);
  }();
  const netcalc::DagSpec& dag = model.dag();

  Analysis a;
  a.edges = dag.edges.size();
  a.offered = spec.source.rate;
  {
    SC_OBS_SPAN("cli", "bounds");
    a.per_node = model.per_node_analysis();
    // The sure and the stochastic delay both fold these rows, so the
    // residual concatenations run once.
    a.paths = model.per_path_analysis();
    a.delay = netcalc::worst_path_delay(a.paths);
    a.backlog = model.backlog_bound();
  }
  certify::postflight_dag("analyze", model, a.paths, ctx);
  if (epsilon >= 0.0) {
    SC_OBS_SPAN("cli", "stochastic");
    a.stochastic = {netcalc::worst_path_delay(a.paths, epsilon),
                    model.backlog_bound(epsilon), ""};
  }
  if (spec.analysis.simulate) a.simulation = simulation_check(spec, a, &dag);
  return a;
}

// --- text -------------------------------------------------------------------

/// Human label for a report's derivation: "chernoff (theta=3.2e-07)",
/// "det_clamp", "deviation".
std::string provenance_label(const netcalc::BoundProvenance& p) {
  std::string out = to_string(p.method);
  if (p.method == netcalc::BoundMethod::kChernoff) {
    out += " (theta=" + util::format_significant(p.theta, 3) + ")";
  }
  return out;
}

/// The per-node table, with an "agg wait" column for chains.
util::Table node_table(const std::vector<netcalc::NodeAnalysis>& rows,
                       bool agg) {
  std::vector<std::string> header{"node",  "regime",  "arrival", "service",
                                  "delay", "backlog", "buffer"};
  if (agg) header.push_back("agg wait");
  std::vector<util::Align> align(header.size(), util::Align::kRight);
  align[0] = align[1] = util::Align::kLeft;
  util::Table t(header, align);
  for (const netcalc::NodeAnalysis& r : rows) {
    std::vector<std::string> cells{
        r.name,                       to_string(r.load_regime),
        format_rate(r.arrival_rate),  format_rate(r.service_rate),
        format_duration(r.delay),     format_size(r.backlog),
        format_size(r.buffer_bytes)};
    if (agg) cells.push_back(format_duration(r.aggregation_wait));
    t.add_row(cells);
  }
  return t;
}

void stochastic_text(Out& os, const StochasticBounds& s) {
  os << "  delay    d <= " << s.delay.value << "  ["
     << provenance_label(s.delay.provenance) << "]\n";
  os << "  backlog  x <= " << s.backlog.value << "  ["
     << provenance_label(s.backlog.provenance) << "]\n";
}

void simulation_text(Out& os, const SimulationCheck& sim, bool with_mean) {
  const streamsim::SimResult& r = sim.result;
  os << "\nsimulation (seed " << sim.seed << "):\n";
  os << "  throughput  " << r.throughput << "\n";
  os << "  delays      [" << r.min_delay << " .. " << r.max_delay << "]";
  if (with_mean) os << ", mean " << r.mean_delay;
  os << "\n  max backlog " << r.max_backlog << "\n";
  os << "  within bounds: delay " << (sim.delay_within_bound ? "yes" : "NO")
     << ", backlog " << (sim.backlog_within_bound ? "yes" : "NO") << "\n";
}

void chain_text(Out& os, const Analysis& a, const ChainFacts& c) {
  os << "pipeline: " << a.per_node.size() << " stages, offered " << a.offered;
  if (c.job_volume.is_finite()) os << ", job " << c.job_volume;
  os << "\nregime:   " << to_string(c.regime) << "\n";
  os << "bottleneck: " << c.bottleneck << "\n\n";

  os << "end-to-end bounds:\n";
  os << "  delay    d <= " << a.delay.value << "\n";
  os << "  backlog  x <= " << a.backlog.value << "\n";
  os << "  fixed latency T^tot = " << c.total_latency << "\n";
  os << "  throughput over " << c.horizon << ": guaranteed "
     << c.throughput.lower << ", at most " << c.throughput.upper << "\n";
  os << "  M/M/1 roofline: " << c.mm1_roofline << "\n\n";

  if (a.stochastic) {
    os << "stochastic bounds, P(violation) <= "
       << significant(a.stochastic->delay.epsilon) << " (source "
       << a.stochastic->source << "):\n";
    stochastic_text(os, *a.stochastic);
    os << "\n";
  }
  os << "per-node analysis:\n" << node_table(a.per_node, /*agg=*/true);
  if (a.simulation) simulation_text(os, *a.simulation, /*with_mean=*/true);
}

void dag_text(Out& os, const Analysis& a) {
  os << "pipeline: DAG with " << a.per_node.size() << " nodes, " << a.edges
     << " edges, offered " << a.offered << "\n\n";
  os << "per-node analysis:\n" << node_table(a.per_node, /*agg=*/false);

  os << "\npath delay bounds:\n";
  for (const netcalc::DagPathAnalysis& p : a.paths) {
    os << "  ";
    for (std::size_t i = 0; i < p.nodes.size(); ++i) {
      os << (i > 0 ? " -> " : "") << a.per_node[p.nodes[i]].name;
    }
    os << ": " << p.delay << "\n";
  }
  os << "end-to-end delay bound: " << a.delay.value
     << "; total backlog bound: " << a.backlog.value << "\n";

  if (a.stochastic) {
    os << "\nstochastic bounds, P(violation) <= "
       << significant(a.stochastic->delay.epsilon) << ":\n";
    stochastic_text(os, *a.stochastic);
  }
  if (a.simulation) simulation_text(os, *a.simulation, /*with_mean=*/false);
}

// --- JSON -------------------------------------------------------------------

/// The "stochastic" object of the analyze and stoch reports.
void stochastic_json(Out& os, const StochasticBounds& s) {
  os << "{\"epsilon\": " << json(s.delay.epsilon)
     << ", \"kind\": " << json(to_string(s.delay.kind))
     << ", \"delay_seconds\": " << json(s.delay.value.in_seconds())
     << ", \"delay_method\": " << json(to_string(s.delay.provenance.method))
     << ", \"delay_theta\": " << json(s.delay.provenance.theta)
     << ", \"backlog_bytes\": " << json(s.backlog.value.in_bytes())
     << ", \"backlog_method\": "
     << json(to_string(s.backlog.provenance.method))
     << ", \"backlog_theta\": " << json(s.backlog.provenance.theta)
     << "}";
}

void simulation_json(Out& os, const SimulationCheck& sim) {
  const streamsim::SimResult& r = sim.result;
  os << "{\"seed\": " << sim.seed << ", \"throughput_bytes_per_sec\": "
     << json(r.throughput.in_bytes_per_sec())
     << ", \"min_delay_seconds\": " << json(r.min_delay.in_seconds())
     << ", \"max_delay_seconds\": " << json(r.max_delay.in_seconds())
     << ", \"mean_delay_seconds\": " << json(r.mean_delay.in_seconds())
     << ", \"max_backlog_bytes\": " << json(r.max_backlog.in_bytes())
     << ", \"delay_within_bound\": "
     << (sim.delay_within_bound ? "true" : "false")
     << ", \"backlog_within_bound\": "
     << (sim.backlog_within_bound ? "true" : "false") << "}";
}

void node_json(Out& os, const netcalc::NodeAnalysis& r, bool agg) {
  os << "{\"name\": " << json(r.name)
     << ", \"regime\": " << json(to_string(r.load_regime))
     << ", \"arrival_bytes_per_sec\": "
     << json(r.arrival_rate.in_bytes_per_sec())
     << ", \"service_bytes_per_sec\": "
     << json(r.service_rate.in_bytes_per_sec())
     << ", \"delay_seconds\": " << json(r.delay.in_seconds())
     << ", \"backlog_bytes\": " << json(r.backlog.in_bytes())
     << ", \"buffer_bytes\": " << json(r.buffer_bytes.in_bytes());
  if (agg) {
    os << ", \"aggregation_wait_seconds\": "
       << json(r.aggregation_wait.in_seconds());
  }
  os << "}";
}

}  // namespace

streamsim::SimConfig simulation_config(const Spec& spec) {
  streamsim::SimConfig cfg;
  cfg.horizon = spec.analysis.horizon;
  cfg.warmup = spec.analysis.horizon / 5.0;
  cfg.seed = spec.analysis.seed;
  cfg.queue_capacity = spec.analysis.queue_capacity;
  cfg.max_trace_samples = 0;
  return cfg;
}

Analysis compute_analysis(const Spec& spec, const util::Context& ctx,
                          double epsilon) {
  return spec.is_dag() ? compute_dag(spec, ctx, epsilon)
                       : compute_chain(spec, ctx, epsilon);
}

std::string render_text(const Analysis& a) {
  SC_OBS_SPAN("cli", "render");
  Out os;
  if (a.chain) {
    chain_text(os, a, *a.chain);
  } else {
    dag_text(os, a);
  }
  return os.take();
}

std::string render_json(const Analysis& a) {
  SC_OBS_SPAN("cli", "render");
  Out os;
  const auto sure = [&](std::string& out) {
    out += "\"delay_seconds\": ";
    util::append_json_number(out, a.delay.value.in_seconds());
    out += ", \"backlog_bytes\": ";
    util::append_json_number(out, a.backlog.value.in_bytes());
  };
  if (a.chain) {
    const ChainFacts& c = *a.chain;
    os << "{\"kind\": \"chain\", \"stages\": " << a.per_node.size()
       << ", \"regime\": " << json(to_string(c.regime))
       << ", \"bottleneck\": " << json(c.bottleneck)
       << ", \"offered_bytes_per_sec\": "
       << json(a.offered.in_bytes_per_sec())
       << ", \"job_bytes\": " << json(c.job_volume.in_bytes())
       << ",\n \"bounds\": {" << sure << ", \"total_latency_seconds\": "
       << json(c.total_latency.in_seconds())
       << ", \"throughput_horizon_seconds\": "
       << json(c.horizon.in_seconds())
       << ", \"throughput_lower_bytes_per_sec\": "
       << json(c.throughput.lower.in_bytes_per_sec())
       << ", \"throughput_upper_bytes_per_sec\": "
       << json(c.throughput.upper.in_bytes_per_sec())
       << ", \"mm1_roofline_bytes_per_sec\": "
       << json(c.mm1_roofline.in_bytes_per_sec()) << "},\n";
  } else {
    os << "{\"kind\": \"dag\", \"nodes\": " << a.per_node.size()
       << ", \"edges\": " << a.edges << ", \"offered_bytes_per_sec\": "
       << json(a.offered.in_bytes_per_sec()) << ",\n \"bounds\": {"
       << sure << "},\n";
  }
  if (a.stochastic) {
    os << " \"stochastic\": ";
    stochastic_json(os, *a.stochastic);
    os << ",\n";
  }
  os << " \"per_node\": [";
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n  ";
    node_json(os, a.per_node[i], a.chain.has_value());
  }
  os << "]";
  if (!a.paths.empty()) {
    os << ",\n \"paths\": [";
    for (std::size_t i = 0; i < a.paths.size(); ++i) {
      const netcalc::DagPathAnalysis& p = a.paths[i];
      os << (i > 0 ? "," : "") << "\n  {\"nodes\": [";
      for (std::size_t k = 0; k < p.nodes.size(); ++k) {
        os << (k > 0 ? ", " : "") << json(a.per_node[p.nodes[k]].name);
      }
      os << "], \"delay_seconds\": " << json(p.delay.in_seconds()) << "}";
    }
    os << "]";
  }
  if (a.simulation) {
    os << ",\n \"simulation\": ";
    simulation_json(os, *a.simulation);
  }
  os << "}\n";
  return os.take();
}

std::string run_report(const Spec& spec, const util::Context& ctx,
                       double epsilon) {
  SC_OBS_SPAN("cli", "analyze");
  return render_text(compute_analysis(spec, ctx, epsilon));
}

std::string run_report_json(const Spec& spec, const util::Context& ctx,
                            double epsilon) {
  SC_OBS_SPAN("cli", "analyze");
  return render_json(compute_analysis(spec, ctx, epsilon));
}

std::string run_stoch_report(const Spec& spec, double epsilon, bool as_json) {
  SC_OBS_SPAN("cli", "stoch");
  util::require(!spec.is_dag(), "stoch applies to chain specs only");

  const netcalc::PipelineModel model = chain_model(spec);
  const double users = spec.stoch_source.users;
  const stochcalc::Arrival per_user =
      per_user_arrival(spec, model.arrival_curve());
  const stochcalc::Arrival arrival = per_user.aggregate(users);
  const stochcalc::Service service =
      stochcalc::Service::from_curve(model.service_curve());

  const netcalc::DelayReport det_d = model.delay_bound();
  const netcalc::BacklogReport det_b = model.backlog_bound();
  const StochasticBounds stoch =
      stochastic_bounds(spec, model, arrival, epsilon, det_d, det_b);
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

  Out os;
  if (as_json) {
    os << "{\"kind\": \"stoch\", \"stages\": " << spec.nodes.size()
       << ", \"source_model\": "
       << json(spec.stoch_source.model.empty() ? "leaky"
                                               : spec.stoch_source.model)
       << ", \"users\": " << json(users)
       << ", \"mean_rate_bytes_per_sec\": "
       << json(arrival.mean_rate().in_bytes_per_sec())
       << ", \"peak_rate_bytes_per_sec\": "
       << json(arrival.peak_rate().in_bytes_per_sec())
       << ",\n \"service\": {\"rate_bytes_per_sec\": "
       << json(service.rate().in_bytes_per_sec())
       << ", \"latency_seconds\": " << json(service.latency().in_seconds())
       << ", \"theta_max\": " << json(tmax) << "},\n"
       << " \"worst_case\": {\"delay_seconds\": "
       << json(det_d.value.in_seconds()) << ", \"backlog_bytes\": "
       << json(det_b.value.in_bytes()) << "},\n"
       << " \"stochastic\": ";
    stochastic_json(os, stoch);
    os << ",\n \"scaling\": [";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      const stochcalc::ScalingPoint& p = scaling[i];
      os << (i > 0 ? "," : "") << "\n  {\"n\": " << json(p.n)
         << ", \"delay_seconds\": " << json(p.delay.value)
         << ", \"gain\": " << json(p.gain) << "}";
    }
    os << "]}\n";
    return os.take();
  }

  os << "stochastic tier: " << spec.nodes.size() << " stages, source "
     << stoch.source << "\n";
  os << "  mean rate " << arrival.mean_rate() << ", peak "
     << arrival.peak_rate() << "\n";
  os << "  service minorant: rate " << service.rate() << ", latency "
     << service.latency() << ", theta domain (0, " << significant(tmax)
     << ")\n\n";

  os << "bounds at P(violation) <= " << significant(epsilon) << ":\n";
  util::Table t({"quantity", "worst case", "stochastic", "method"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kLeft});
  t.add_row({"delay", format_duration(det_d.value),
             format_duration(stoch.delay.value),
             provenance_label(stoch.delay.provenance)});
  t.add_row({"backlog", format_size(det_b.value),
             format_size(stoch.backlog.value),
             provenance_label(stoch.backlog.provenance)});
  os << t;

  os << "\naggregation scaling (N users on an N-scaled server):\n";
  util::Table s({"N", "delay", "gain"},
                {util::Align::kRight, util::Align::kRight,
                 util::Align::kRight});
  for (const stochcalc::ScalingPoint& p : scaling) {
    s.add_row({util::format_significant(p.n, 6),
               format_duration(util::Duration::seconds(p.delay.value)),
               util::format_significant(p.gain, 3) + "x"});
  }
  os << s;
  return os.take();
}

namespace {

/// The shared body of `analyze` and `stoch`: reads and parses the single
/// spec in `opts.paths`, runs the lint pre-flight, and prints
/// `report(spec)`. Any failure is one `error:` line and exit 1.
template <class Report>
int print_report(const Options& opts, const Report& report) {
  const std::string& path = opts.paths.front();
  std::string text;
  if (!read_spec_text(path, text)) return 1;
  try {
    const Spec spec = parse_spec(text);
    diagnostics::preflight(path, lint_spec(spec), opts.ctx.lint);
    std::fputs(report(spec).c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int run_analyze(const Options& opts) {
  return print_report(opts, [&](const Spec& spec) {
    return opts.json ? run_report_json(spec, opts.ctx, opts.epsilon)
                     : run_report(spec, opts.ctx, opts.epsilon);
  });
}

int run_stoch(const Options& opts) {
  // --epsilon absent: stoch still needs a violation probability to report
  // against, so it defaults to one-in-a-million.
  const double epsilon = opts.epsilon >= 0.0 ? opts.epsilon : 1e-6;
  return print_report(opts, [&](const Spec& spec) {
    return run_stoch_report(spec, epsilon, opts.json);
  });
}

}  // namespace streamcalc::cli
