// The analyze workload: one thread runs a closed loop over a seeded corpus
// of perturbed real specs, in process, through the analyze path
// (cli::parse_spec -> cli::lint_spec -> cli::run_report) and, in a
// separate pass over the same specs, the certify path (cli::certify_spec).
//
// Every rate of every spec is scaled by one seeded factor per spec, so
// utilizations (hence lint verdicts and load regimes) are unchanged but no
// two analyses share curve operands: the curve-op cache sees what a
// one-shot CLI process sees. The cache is also cleared before each pass,
// as a fresh process would start.
//
// The traced run additionally replays, outside the timed path, the layer
// calls run_report and certify_spec make (model construction, bounds,
// stochastic bounds, M/M/1, DES, certificate emission and checking), each
// under its own span; run_report's self time is its time minus those.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "certify/checker.hpp"
#include "certify/postflight.hpp"
#include "cli/certify.hpp"
#include "cli/lint.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "common.hpp"
#include "minplus/cache.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/dag.hpp"
#include "netcalc/pipeline.hpp"
#include "obs/metrics.hpp"
#include "queueing/mm1.hpp"
#include "stochcalc/envelope.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/context.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace cli = streamcalc::cli;
namespace netcalc = streamcalc::netcalc;
using streamcalc::minplus::CurveOpCache;
using streamcalc::util::Xoshiro256;

struct Family {
  const char* name;
  const char* path;  ///< relative to the checkout root
  double epsilon;    ///< run_report epsilon; negative = sure bounds only
};

/// The five real specs the corpus is generated from.
const Family kFamilies[] = {
    {"quickstart", "examples/specs/quickstart.scspec", -1.0},
    {"bitw", "examples/specs/bitw.scspec", -1.0},
    {"fork_join", "examples/specs/fork_join.scspec", -1.0},
    {"onoff_users", "examples/specs/onoff_users.scspec", 1e-6},
    {"blast", "tests/diagnostics/specs/blast_base.scspec", -1.0},
};

/// Perturbed copies of each family in one corpus pass. Odd, so the
/// per-spec median falls inside one family rather than between two.
constexpr int kCopies = 3;

/// Range of the per-spec rate scale factor (log-uniform).
constexpr double kMinFactor = 0.8;
constexpr double kMaxFactor = 1.25;
/// Width of the seeded jitter around each copy's factor, as a share of
/// its slice of the range.
constexpr double kJitter = 0.02;

struct Item {
  const Family* family;
  std::string text;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool is_rate_key(std::string_view key) {
  return key == "rate" || key == "rate_min" || key == "rate_avg" ||
         key == "rate_max" || key == "bandwidth" || key == "peak";
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Rewrites every rate value of a spec text multiplied by `factor`.
std::string scale_rates(const std::string& text, double factor) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    const std::string_view key =
        eq == std::string::npos ? std::string_view{}
                                : trim(std::string_view(line).substr(0, eq));
    if (!key.empty() && key.front() != '#' && is_rate_key(key)) {
      const std::string value = line.substr(eq + 1);
      char* unit = nullptr;
      const double v = std::strtod(value.c_str(), &unit);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v * factor);
      out.append(key).append(" = ").append(buf).append(unit).append("\n");
    } else {
      out.append(line).append("\n");
    }
  }
  return out;
}

std::vector<Item> make_corpus(const std::vector<std::string>& base,
                              Xoshiro256& rng) {
  std::vector<Item> corpus;
  const double lo = std::log(kMinFactor);
  const double hi = std::log(kMaxFactor);
  for (std::size_t f = 0; f < base.size(); ++f) {
    for (int c = 0; c < kCopies; ++c) {
      // Copy c sits near the middle of the c-th slice of the log range,
      // jittered by the seed: every pass then does nearly the same work
      // whatever the seed, yet no two specs share a rate bit pattern.
      const double t = (c + 0.5 + kJitter * (rng.uniform01() - 0.5)) / kCopies;
      const double factor = std::exp(lo + t * (hi - lo));
      corpus.push_back({&kFamilies[f], scale_rates(base[f], factor)});
    }
  }
  return corpus;
}

/// The per-user arrival run_report's stochastic block evaluates for a
/// chain spec with an explicit [source] model.
streamcalc::stochcalc::Arrival explicit_arrival(const cli::Spec& spec) {
  using streamcalc::stochcalc::Arrival;
  const cli::StochSourceSpec& ss = spec.stoch_source;
  if (ss.model == "onoff") {
    return Arrival::on_off(ss.peak, ss.mean_on, ss.mean_off,
                           spec.source.packet);
  }
  if (ss.model == "poisson") {
    return Arrival::poisson_packets(ss.lambda, spec.source.packet);
  }
  return Arrival::leaky_bucket(spec.source.rate, spec.source.burst);
}

streamcalc::streamsim::SimConfig sim_config(const cli::Spec& spec) {
  streamcalc::streamsim::SimConfig cfg;
  cfg.horizon = spec.analysis.horizon;
  cfg.warmup = spec.analysis.horizon / 5.0;
  cfg.seed = spec.analysis.seed;
  cfg.queue_capacity = spec.analysis.queue_capacity;
  return cfg;
}

/// Replays the layer calls run_report makes for `spec`, each under its own
/// span. Returns their summed time (µs).
double replay_report_layers(const cli::Spec& spec, double epsilon,
                            Spans& spans) {
  double total = 0.0;
  const auto timed = [&](const char* layer, const auto& call) {
    const Clock::time_point t0 = Clock::now();
    call();
    const double us = us_between(t0, Clock::now());
    spans.record(layer, us);
    total += us;
  };
  if (spec.is_dag()) {
    std::optional<netcalc::DagSpec> dag;
    std::optional<netcalc::DagModel> model;
    timed("netcalc.model", [&] {
      dag.emplace(spec.dag());
      model.emplace(*dag, spec.source, spec.policy);
    });
    timed("netcalc.bounds", [&] {
      (void)model->per_node_analysis();
      (void)model->per_path_analysis();
      (void)model->delay_bound();
      (void)model->backlog_bound();
    });
    if (epsilon >= 0.0) {
      timed("stochcalc.bounds", [&] {
        (void)model->delay_bound(epsilon);
        (void)model->backlog_bound(epsilon);
      });
    }
    if (spec.analysis.simulate) {
      timed("streamsim.simulate", [&] {
        (void)streamcalc::streamsim::simulate_dag(*dag, spec.source,
                                                  sim_config(spec));
      });
    }
    return total;
  }
  std::optional<netcalc::PipelineModel> model;
  timed("netcalc.model",
        [&] { model.emplace(spec.nodes, spec.source, spec.policy); });
  timed("netcalc.bounds", [&] {
    (void)model->load_regime();
    (void)model->bottleneck();
    (void)model->delay_bound();
    (void)model->backlog_bound();
    (void)model->throughput_bounds(spec.analysis.horizon);
    (void)model->per_node_analysis();
  });
  timed("queueing.mm1",
        [&] { (void)streamcalc::queueing::analyze(spec.nodes, spec.source); });
  if (epsilon >= 0.0) {
    timed("stochcalc.bounds", [&] {
      if (spec.stoch_source.model.empty()) {
        (void)model->delay_bound(epsilon);
        (void)model->backlog_bound(epsilon);
      } else {
        const auto arrival =
            explicit_arrival(spec).aggregate(spec.stoch_source.users);
        (void)model->delay_bound(epsilon, arrival);
        (void)model->backlog_bound(epsilon, arrival);
      }
    });
  }
  if (spec.analysis.simulate) {
    timed("streamsim.simulate", [&] {
      (void)streamcalc::streamsim::simulate(spec.nodes, spec.source,
                                            sim_config(spec));
    });
  }
  return total;
}

/// Replays certify_spec's emit and check steps under their own spans.
void replay_certify_layers(const cli::Spec& spec, Spans& spans) {
  namespace certify = streamcalc::certify;
  std::vector<certify::BoundCertificate> certs;
  if (spec.is_dag()) {
    const netcalc::DagModel model(spec.dag(), spec.source, spec.policy);
    certs = spans.span("certify.emit",
                       [&] { return certify::emit_dag_certificates(model); });
  } else {
    const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);
    certs = spans.span("certify.emit", [&] {
      return certify::emit_pipeline_certificates(model);
    });
  }
  spans.span("certify.check",
             [&] { (void)certify::check_certificates(certs); });
}

/// Library counters read around the traced analyze path.
struct Counters {
  streamcalc::obs::Counter& convolve;
  streamcalc::obs::Counter& deconvolve;
  streamcalc::obs::Counter& deconvolve_general;
  streamcalc::obs::Counter& parallel_for;

  static Counters bind() {
    auto& reg = streamcalc::obs::Registry::global();
    return {reg.counter("minplus.convolve.calls"),
            reg.counter("minplus.deconvolve.calls"),
            reg.counter("minplus.deconvolve.kernel.general"),
            reg.counter("pool.parallel_for.calls")};
  }
};

struct PhaseStats {
  std::size_t specs = 0;  ///< analyzed specs (each also certified)
  std::size_t passes = 0;
  /// Path times by corpus position: every pass puts a copy of the same
  /// family with nearly the same factor at each position.
  std::vector<std::vector<double>> analyze_us;  ///< [position][pass]
  std::vector<std::vector<double>> certify_us;  ///< [position][pass]
  std::vector<bool> dag;                         ///< per position
  std::vector<double> reference_us;              ///< one per pass
  // traced phase only
  std::vector<double> pass_wall_us;  ///< whole pass, replays included
  std::vector<double> pass_path_us;  ///< the analyze paths of the pass
  std::vector<std::map<std::string, double>> layer_us;  ///< per pass
  double convolve = 0.0;
  double deconvolve = 0.0;
  double deconvolve_general = 0.0;
  double parallel_for = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
};

class AnalyzeWorkload {
 public:
  AnalyzeWorkload(const Args& args, Result& result)
      : args_(args), result_(result), rng_(args.seed) {
    for (const Family& f : kFamilies) {
      base_.push_back(read_file(args.root + "/" + f.path));
    }
  }

  std::vector<Item> next_corpus() { return make_corpus(base_, rng_); }

  /// One spec through parse -> lint -> run_report. Returns the parsed
  /// spec on success (for the certify pass), nullopt after a failure.
  std::optional<cli::Spec> analyze_path(const Item& item, Spans& spans,
                                        double& path_us,
                                        double& report_us) {
    result_.attempt();
    try {
      const Clock::time_point t0 = Clock::now();
      cli::Spec spec =
          spans.span("cli.parse", [&] { return cli::parse_spec(item.text); });
      const auto lint =
          spans.span("diagnostics.lint", [&] { return cli::lint_spec(spec); });
      const Clock::time_point r0 = Clock::now();
      const std::string report =
          cli::run_report(spec, ctx_, item.family->epsilon);
      const Clock::time_point t1 = Clock::now();
      path_us = us_between(t0, t1);
      report_us = us_between(r0, t1);
      if (!lint.clean()) {
        result_.fail(std::string(item.family->name) + ": lint not clean");
        return std::nullopt;
      }
      if (spec.analysis.simulate &&
          report.find("within bounds: delay yes, backlog yes") ==
              std::string::npos) {
        result_.fail(std::string(item.family->name) +
                     ": DES delay or backlog outside the bounds");
        return std::nullopt;
      }
      return spec;
    } catch (const std::exception& e) {
      result_.fail(std::string(item.family->name) + ": " + e.what());
      return std::nullopt;
    }
  }

  bool certify_path(const Item& item, const cli::Spec& spec,
                    double& path_us) {
    result_.attempt();
    try {
      const Clock::time_point t0 = Clock::now();
      const auto report = cli::certify_spec(spec);
      path_us = us_between(t0, Clock::now());
      if (!report.clean()) {
        result_.fail(std::string(item.family->name) +
                     ": certificate report not clean");
        return false;
      }
      return true;
    } catch (const std::exception& e) {
      result_.fail(std::string(item.family->name) + ": certify: " + e.what());
      return false;
    }
  }

  /// Corpus passes, each on the next CPU, until `seconds` have elapsed
  /// (at least eight).
  PhaseStats run_phase(double seconds, Spans& spans) {
    PhaseStats st;
    CpuRotation cpus;
    CurveOpCache& cache = CurveOpCache::global();
    const Counters counters = Counters::bind();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(
                           static_cast<std::int64_t>(seconds * 1e6));
    for (; st.passes < 8 || Clock::now() < deadline; ++st.passes) {
      cpus.next();
      st.reference_us.push_back(reference_loop_us());
      const std::vector<Item> corpus = next_corpus();
      st.analyze_us.resize(corpus.size());
      st.certify_us.resize(corpus.size());
      st.dag.resize(corpus.size());
      std::vector<std::optional<cli::Spec>> specs(corpus.size());
      const std::map<std::string, double> layers_before = spans.totals();
      const Clock::time_point pass_start = Clock::now();

      cache.clear();
      double pass_path_us = 0.0;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const double c0 = static_cast<double>(counters.convolve.value());
        const double d0 = static_cast<double>(counters.deconvolve.value());
        const double g0 =
            static_cast<double>(counters.deconvolve_general.value());
        const double p0 = static_cast<double>(counters.parallel_for.value());
        const CurveOpCache::Stats s0 = cache.stats();
        double path_us = 0.0;
        double report_us = 0.0;
        specs[i] = analyze_path(corpus[i], spans, path_us, report_us);
        if (!specs[i]) continue;
        st.analyze_us[i].push_back(path_us);
        st.dag[i] = specs[i]->is_dag();
        pass_path_us += path_us;
        if (!spans.on()) continue;

        const CurveOpCache::Stats s1 = cache.stats();
        st.convolve += static_cast<double>(counters.convolve.value()) - c0;
        st.deconvolve +=
            static_cast<double>(counters.deconvolve.value()) - d0;
        st.deconvolve_general +=
            static_cast<double>(counters.deconvolve_general.value()) - g0;
        st.parallel_for +=
            static_cast<double>(counters.parallel_for.value()) - p0;
        st.cache_hits += static_cast<double>(s1.hits - s0.hits);
        st.cache_misses += static_cast<double>(s1.misses - s0.misses);
        // The replay must see the cache the path saw: nothing of this
        // spec's operands.
        cache.clear();
        const double layers =
            replay_report_layers(*specs[i], corpus[i].family->epsilon, spans);
        spans.record("cli.render", report_us - layers);
      }

      cache.clear();
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (!specs[i]) continue;
        double path_us = 0.0;
        if (!certify_path(corpus[i], *specs[i], path_us)) continue;
        st.certify_us[i].push_back(path_us);
        if (spans.on()) replay_certify_layers(*specs[i], spans);
      }
      st.specs += corpus.size();
      if (!spans.on()) continue;

      st.pass_wall_us.push_back(us_between(pass_start, Clock::now()));
      st.pass_path_us.push_back(pass_path_us);
      std::map<std::string, double>& pass_layers = st.layer_us.emplace_back();
      for (const auto& [layer, total] : spans.totals()) {
        const auto before = layers_before.find(layer);
        pass_layers[layer] =
            total - (before == layers_before.end() ? 0.0 : before->second);
      }
    }
    return st;
  }

  /// Installs the Context `streamcalc analyze <spec>` resolves with no
  /// flags (run.py clears STREAMCALC_* from the environment).
  void install_context() {
    const char* argv[] = {"streamcalc", "analyze", "spec.scspec"};
    const cli::ParseResult parsed = cli::parse_args(3, argv);
    ctx_ = parsed.options.ctx;
    streamcalc::util::Context::install(ctx_);
  }

 private:
  const Args& args_;
  Result& result_;
  Xoshiro256 rng_;
  std::vector<std::string> base_;
  streamcalc::util::Context ctx_;
};

}  // namespace

int run_analyze(const Args& args) {
  Result result;
  AnalyzeWorkload w(args, result);

  if (args.setup_only) {
    // Set-up: Context resolution and install plus a cold analysis of one
    // spec of every family (the first creates the thread pool and the
    // curve-op cache).
    const std::vector<Item> corpus = w.next_corpus();
    Spans off(false);
    const Clock::time_point t0 = Clock::now();
    w.install_context();
    for (std::size_t i = 0; i < corpus.size(); i += kCopies) {
      double path_us = 0.0;
      double report_us = 0.0;
      (void)w.analyze_path(corpus[i], off, path_us, report_us);
    }
    result.metric("setup_s", us_between(t0, Clock::now()) * 1e-6);
    result.print();
    return result.failed() == 0 ? 0 : 1;
  }

  w.install_context();
  const std::size_t corpus_size = std::size(kFamilies) * kCopies;
  Spans untraced(false);
  const PhaseStats e2e =
      w.run_phase(args.trace ? args.seconds / 3.0 : args.seconds, untraced);
  const Fastest analyze = fastest_repetitions(e2e.analyze_us);
  const Fastest certify = fastest_repetitions(e2e.certify_us);

  if (!args.trace) {
    result.metric("throughput_per_s", analyze.per_s);
    result.metric("secondary_per_s", certify.per_s);
    result.metric("latency_p50_us", quantile(analyze.unit_us, 0.5));
    result.metric("latency_p95_us", quantile(analyze.unit_us, 0.95));
    result.metric("secondary_p50_us", quantile(certify.unit_us, 0.5));
    result.metric("rss_mb", proc_status_kb("self", "VmHWM") / 1024.0);
    result.note("passes", static_cast<double>(e2e.passes));
    result.note("host.reference_us",
                fastest_repetitions({e2e.reference_us}).unit_us.front());
    result.print();
    return result.failed() == 0 ? 0 : 1;
  }

  Spans spans(true);
  const PhaseStats tr = w.run_phase(args.seconds * 2.0 / 3.0, spans);
  // Layer times are µs per spec over the traced passes whose whole wall
  // time (replays included) was in the fastest share: selecting on the
  // path alone would bias run_report's self time low.
  const std::vector<std::size_t> fast = fastest(tr.pass_wall_us, kFastShare);
  const double fast_specs = static_cast<double>(fast.size() * corpus_size);
  const auto per_spec = [&](const std::string& layer) {
    double sum = 0.0;
    for (const std::size_t p : fast) {
      const auto it = tr.layer_us[p].find(layer);
      if (it != tr.layer_us[p].end()) sum += it->second;
    }
    return sum / fast_specs;
  };
  double fast_path_us = 0.0;
  for (const std::size_t p : fast) fast_path_us += tr.pass_path_us[p];
  fast_path_us /= fast_specs;
  // Coverage counts only the independently timed layers: run_report's
  // self time (cli.render) is the unattributed rest of the path.
  double layers = 0.0;
  for (const char* layer :
       {"cli.parse", "diagnostics.lint", "netcalc.model", "netcalc.bounds",
        "stochcalc.bounds", "queueing.mm1", "streamsim.simulate"}) {
    const double us = per_spec(layer);
    layers += us;
    result.metric(std::string(layer) + "_us", us);
  }
  const Fastest traced = fastest_repetitions(tr.analyze_us);
  std::vector<double> chain_us;
  std::vector<double> dag_us;
  for (std::size_t i = 0; i < traced.unit_us.size(); ++i) {
    (tr.dag[i] ? dag_us : chain_us).push_back(traced.unit_us[i]);
  }
  result.metric("cli.render_us", std::max(per_spec("cli.render"), 0.0));
  result.metric("analyze.chain_p50_us", quantile(chain_us, 0.5));
  result.metric("analyze.dag_p50_us", quantile(dag_us, 0.5));
  result.metric("certify.emit_us", per_spec("certify.emit"));
  result.metric("certify.check_us", per_spec("certify.check"));
  const double n = static_cast<double>(tr.specs);
  result.metric("minplus.convolve.calls", tr.convolve / n);
  result.metric("minplus.deconvolve.calls", tr.deconvolve / n);
  result.metric("minplus.deconvolve.general", tr.deconvolve_general / n);
  result.metric("util.pool.parallel_for.calls", tr.parallel_for / n);
  result.metric("minplus.cache.hit_ratio",
                tr.cache_hits / std::max(tr.cache_hits + tr.cache_misses, 1.0));
  result.metric("analyze.layer_coverage", layers / fast_path_us);
  result.metric("trace.slowdown", analyze.per_s / traced.per_s);
  result.note("untraced.throughput_per_s", analyze.per_s);
  result.note("traced.throughput_per_s", traced.per_s);
  result.note("untraced.secondary_per_s", certify.per_s);
  result.note("traced.secondary_per_s", fastest_repetitions(tr.certify_us).per_s);
  result.note("traced.passes", static_cast<double>(tr.passes));
  result.metric("host.reference_us",
                fastest_repetitions({tr.reference_us}).unit_us.front());
  result.print();
  return result.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
