#include "cli/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>
#include <tuple>

#include "util/error.hpp"

namespace streamcalc::cli {

namespace {

using util::DataRate;
using util::DataSize;
using util::Duration;

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void fail(const std::string& message) {
  throw util::PreconditionError("spec: " + message);
}

double parse_number(std::string_view text, std::string_view what) {
  const std::string_view t = trim(text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    fail("cannot parse " + std::string(what) + " number from '" +
         std::string(text) + "'");
  }
  return value;
}

/// Splits "123.4 MiB/s" into the number and the unit token.
std::pair<double, std::string> split_quantity(std::string_view text,
                                              std::string_view what) {
  const std::string_view t = trim(text);
  std::size_t i = 0;
  while (i < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[i])) || t[i] == '.' ||
          t[i] == '+' || t[i] == '-' || t[i] == 'e' || t[i] == 'E')) {
    // Stop at an 'e'/'E' that begins a unit rather than an exponent.
    if ((t[i] == 'e' || t[i] == 'E') &&
        (i + 1 >= t.size() ||
         (!std::isdigit(static_cast<unsigned char>(t[i + 1])) &&
          t[i + 1] != '+' && t[i + 1] != '-'))) {
      break;
    }
    ++i;
  }
  const double value = parse_number(t.substr(0, i), what);
  return {value, std::string(trim(t.substr(i)))};
}

}  // namespace

DataSize parse_size(std::string_view text) {
  const auto [value, unit] = split_quantity(text, "size");
  if (unit == "B") return DataSize::bytes(value);
  if (unit == "KiB") return DataSize::kib(value);
  if (unit == "MiB") return DataSize::mib(value);
  if (unit == "GiB") return DataSize::gib(value);
  fail("unknown size unit '" + unit + "' (use B, KiB, MiB, GiB)");
}

DataRate parse_rate(std::string_view text) {
  const auto [value, unit] = split_quantity(text, "rate");
  if (unit == "B/s") return DataRate::bytes_per_sec(value);
  if (unit == "KiB/s") return DataRate::kib_per_sec(value);
  if (unit == "MiB/s") return DataRate::mib_per_sec(value);
  if (unit == "GiB/s") return DataRate::gib_per_sec(value);
  fail("unknown rate unit '" + unit + "' (use B/s, KiB/s, MiB/s, GiB/s)");
}

Duration parse_duration(std::string_view text) {
  const auto [value, unit] = split_quantity(text, "duration");
  if (unit == "s") return Duration::seconds(value);
  if (unit == "ms") return Duration::millis(value);
  if (unit == "us") return Duration::micros(value);
  if (unit == "ns") return Duration::nanos(value);
  fail("unknown duration unit '" + unit + "' (use s, ms, us, ns)");
}

namespace {

bool parse_bool(std::string_view text, int line) {
  const std::string_view t = trim(text);
  if (t == "true" || t == "yes" || t == "1") return true;
  if (t == "false" || t == "no" || t == "0") return false;
  fail("line " + std::to_string(line) + ": expected a boolean, got '" +
       std::string(text) + "'");
}

/// Key/value pairs of one section, with line numbers for diagnostics.
struct Section {
  std::string kind;  // "source", "node", "policy", "analysis"
  std::string name;  // node name for [node X]
  int line = 0;
  std::vector<std::pair<std::string, std::pair<std::string, int>>> entries;
};

std::vector<Section> split_sections(std::string_view text) {
  std::vector<Section> sections;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    line = trim(line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        fail("line " + std::to_string(line_no) + ": unterminated section");
      }
      const std::string_view inner = trim(line.substr(1, line.size() - 2));
      Section s;
      s.line = line_no;
      const std::size_t space = inner.find(' ');
      if (space == std::string_view::npos) {
        s.kind = std::string(inner);
      } else {
        s.kind = std::string(trim(inner.substr(0, space)));
        s.name = std::string(trim(inner.substr(space + 1)));
      }
      sections.push_back(std::move(s));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail("line " + std::to_string(line_no) + ": expected 'key = value'");
    }
    if (sections.empty()) {
      fail("line " + std::to_string(line_no) +
           ": key/value before any [section]");
    }
    sections.back().entries.emplace_back(
        std::string(trim(line.substr(0, eq))),
        std::make_pair(std::string(trim(line.substr(eq + 1))), line_no));
  }
  return sections;
}

/// Consumable view over a section's entries that rejects unknown keys.
class Keys {
 public:
  explicit Keys(const Section& s) : section_(s) {
    for (const auto& [k, v] : s.entries) {
      if (!map_.emplace(k, v).second) {
        fail("line " + std::to_string(v.second) + ": duplicate key '" + k +
             "'");
      }
    }
  }

  std::optional<std::string> take(const std::string& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    std::string value = it->second.first;
    map_.erase(it);
    return value;
  }

  void finish() const {
    if (!map_.empty()) {
      const auto& [k, v] = *map_.begin();
      fail("line " + std::to_string(v.second) + ": unknown key '" + k +
           "' in [" + section_.kind +
           (section_.name.empty() ? "" : " " + section_.name) + "]");
    }
  }

 private:
  const Section& section_;
  std::map<std::string, std::pair<std::string, int>> map_;
};

netcalc::NodeKind parse_kind(const std::string& text, int line) {
  if (text == "compute") return netcalc::NodeKind::kCompute;
  if (text == "network") return netcalc::NodeKind::kNetworkLink;
  if (text == "pcie") return netcalc::NodeKind::kPcieLink;
  fail("line " + std::to_string(line) + ": unknown node kind '" + text +
       "' (use compute, network, pcie)");
}

netcalc::RateBasis parse_basis(const std::string& text, int line) {
  if (text == "min") return netcalc::RateBasis::kMin;
  if (text == "avg") return netcalc::RateBasis::kAvg;
  if (text == "max") return netcalc::RateBasis::kMax;
  fail("line " + std::to_string(line) + ": unknown rate basis '" + text +
       "' (use min, avg, max)");
}

netcalc::NodeSpec parse_node(const Section& s, bool validate) {
  if (s.name.empty()) {
    fail("line " + std::to_string(s.line) + ": node sections need a name "
         "([node myname])");
  }
  Keys keys(s);
  netcalc::NodeKind kind = netcalc::NodeKind::kCompute;
  if (auto v = keys.take("kind")) kind = parse_kind(*v, s.line);
  netcalc::NodeSpec n;
  n.name = s.name;
  n.kind = kind;

  if (auto bw = keys.take("bandwidth")) {
    // Link shorthand.
    DataSize packet = DataSize::kib(64);
    if (auto v = keys.take("packet")) packet = parse_size(*v);
    Duration prop = Duration::seconds(0);
    if (auto v = keys.take("propagation")) prop = parse_duration(*v);
    n = netcalc::NodeSpec::link(s.name, kind, parse_rate(*bw), packet, prop);
  } else {
    if (auto v = keys.take("block_in")) n.block_in = parse_size(*v);
    n.block_out = n.block_in;
    if (auto v = keys.take("block_out")) n.block_out = parse_size(*v);
    if (auto v = keys.take("time_min")) n.time_min = parse_duration(*v);
    if (auto v = keys.take("time_avg")) n.time_avg = parse_duration(*v);
    if (auto v = keys.take("time_max")) n.time_max = parse_duration(*v);
    const auto rmin = keys.take("rate_min");
    const auto ravg = keys.take("rate_avg");
    const auto rmax = keys.take("rate_max");
    if (rmin || ravg || rmax) {
      if (!(rmin && ravg && rmax)) {
        fail("line " + std::to_string(s.line) +
             ": rate_min/rate_avg/rate_max must be given together");
      }
      if (n.block_in == DataSize::bytes(0)) {
        fail("line " + std::to_string(s.line) +
             ": rates need block_in to derive per-job times");
      }
      n.time_min = n.block_in / parse_rate(*rmax);
      n.time_avg = n.block_in / parse_rate(*ravg);
      n.time_max = n.block_in / parse_rate(*rmin);
    }
  }
  if (auto v = keys.take("volume")) {
    n.volume = netcalc::VolumeRatio::exact(parse_number(*v, "volume"));
  }
  {
    // Explicit bytes-out-per-byte-in spread (e.g. a decompressor's
    // expansion range, which runs opposite to `compression`).
    const auto vmin = keys.take("volume_min");
    const auto vavg = keys.take("volume_avg");
    const auto vmax = keys.take("volume_max");
    if (vmin || vavg || vmax) {
      if (!(vmin && vavg && vmax)) {
        fail("line " + std::to_string(s.line) +
             ": volume_min/volume_avg/volume_max must be given together");
      }
      n.volume = netcalc::VolumeRatio{parse_number(*vmin, "volume_min"),
                                      parse_number(*vavg, "volume_avg"),
                                      parse_number(*vmax, "volume_max")};
    }
  }
  if (auto v = keys.take("compression")) {
    // "min avg max" observed compression ratios.
    double a, b, c;
    if (std::sscanf(v->c_str(), "%lf %lf %lf", &a, &b, &c) != 3) {
      fail("line " + std::to_string(s.line) +
           ": compression expects three ratios 'min avg max'");
    }
    n.volume = netcalc::VolumeRatio::from_compression(a, b, c);
  }
  if (auto v = keys.take("restores_volume")) {
    n.restores_volume = parse_bool(*v, s.line);
  }
  if (auto v = keys.take("aggregates")) {
    n.aggregates = parse_bool(*v, s.line);
  }
  if (auto v = keys.take("latency")) {
    n.latency_override = parse_duration(*v);
  }
  if (auto v = keys.take("rate_isolated")) {
    n.rate_isolated = parse_rate(*v);
  }
  keys.finish();
  if (validate) n.validate();
  return n;
}

}  // namespace

netcalc::DagSpec Spec::dag() const {
  util::require(is_dag(), "Spec::dag() requires a [topology] section");
  netcalc::DagSpec d;
  d.nodes = nodes;
  d.edges = edges;
  d.entries = entries;
  d.validate();
  return d;
}

namespace {

/// "from to fraction" or "to fraction" (entries) with node-name lookup.
netcalc::DagEdge parse_topology_edge(
    const std::string& value, int line, bool entry,
    const std::vector<netcalc::NodeSpec>& nodes) {
  const auto index_of = [&](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].name == name) return i;
    }
    fail("line " + std::to_string(line) + ": unknown node '" + name + "'");
  };
  char a[128], b[128];
  double fraction = 1.0;
  netcalc::DagEdge e;
  if (entry) {
    const int got = std::sscanf(value.c_str(), "%127s %lf", a, &fraction);
    if (got < 1) {
      fail("line " + std::to_string(line) +
           ": entry expects '<node> [fraction]'");
    }
    e.to = index_of(a);
  } else {
    const int got =
        std::sscanf(value.c_str(), "%127s %127s %lf", a, b, &fraction);
    if (got < 2) {
      fail("line " + std::to_string(line) +
           ": edge expects '<from> <to> [fraction]'");
    }
    e.from = index_of(a);
    e.to = index_of(b);
  }
  e.fraction = fraction;
  return e;
}

}  // namespace

namespace {

Spec parse_spec_impl(std::string_view text, bool validate) {
  Spec spec;
  bool have_source = false;
  // Topology lines are resolved after all nodes are known.
  std::vector<std::tuple<std::string, std::string, int>> topology;
  for (const Section& s : split_sections(text)) {
    if (s.kind == "source") {
      have_source = true;
      Keys keys(s);
      if (auto v = keys.take("rate")) spec.source.rate = parse_rate(*v);
      if (auto v = keys.take("burst")) spec.source.burst = parse_size(*v);
      if (auto v = keys.take("packet")) spec.source.packet = parse_size(*v);
      if (auto v = keys.take("job")) spec.source.job_volume = parse_size(*v);
      if (auto v = keys.take("model")) {
        if (*v != "onoff" && *v != "poisson" && *v != "leaky") {
          fail("line " + std::to_string(s.line) +
               ": [source] model must be onoff, poisson, or leaky (got '" +
               std::string(*v) + "')");
        }
        spec.stoch_source.model = *v;
      }
      if (auto v = keys.take("users")) {
        spec.stoch_source.users = parse_number(*v, "users");
      }
      if (auto v = keys.take("peak")) {
        spec.stoch_source.peak = parse_rate(*v);
      }
      if (auto v = keys.take("mean_on")) {
        spec.stoch_source.mean_on = parse_duration(*v);
      }
      if (auto v = keys.take("mean_off")) {
        spec.stoch_source.mean_off = parse_duration(*v);
      }
      if (auto v = keys.take("lambda")) {
        spec.stoch_source.lambda = parse_number(*v, "lambda");
      }
      keys.finish();
    } else if (s.kind == "node") {
      spec.nodes.push_back(parse_node(s, validate));
    } else if (s.kind == "policy") {
      Keys keys(s);
      if (auto v = keys.take("service_basis")) {
        spec.policy.service_basis = parse_basis(*v, s.line);
      }
      if (auto v = keys.take("max_service_basis")) {
        spec.policy.max_service_basis = parse_basis(*v, s.line);
      }
      if (auto v = keys.take("max_service_latency")) {
        spec.policy.max_service_latency = parse_bool(*v, s.line);
      }
      if (auto v = keys.take("packetize")) {
        spec.policy.packetize = parse_bool(*v, s.line);
      }
      keys.finish();
    } else if (s.kind == "topology") {
      for (const auto& [key, value] : s.entries) {
        if (key != "edge" && key != "entry") {
          fail("line " + std::to_string(value.second) +
               ": [topology] accepts only 'edge' and 'entry' keys");
        }
        topology.emplace_back(key, value.first, value.second);
      }
    } else if (s.kind == "analysis") {
      Keys keys(s);
      if (auto v = keys.take("horizon")) {
        spec.analysis.horizon = parse_duration(*v);
      }
      if (auto v = keys.take("simulate")) {
        spec.analysis.simulate = parse_bool(*v, s.line);
      }
      if (auto v = keys.take("seed")) {
        spec.analysis.seed =
            static_cast<std::uint64_t>(parse_number(*v, "seed"));
      }
      if (auto v = keys.take("queue_capacity")) {
        spec.analysis.queue_capacity =
            static_cast<std::size_t>(parse_number(*v, "queue_capacity"));
      }
      keys.finish();
    } else {
      fail("line " + std::to_string(s.line) + ": unknown section [" +
           s.kind + "]");
    }
  }
  if (!have_source) fail("missing [source] section");
  if (spec.nodes.empty()) fail("no [node ...] sections");
  for (const auto& [key, value, line] : topology) {
    if (key == "entry") {
      spec.entries.push_back(
          parse_topology_edge(value, line, /*entry=*/true, spec.nodes));
    } else {
      spec.edges.push_back(
          parse_topology_edge(value, line, /*entry=*/false, spec.nodes));
    }
  }
  if (validate) {
    if (spec.is_dag()) spec.dag();  // validate the topology eagerly
    util::require(spec.source.rate > DataRate::bytes_per_sec(0),
                  "spec: [source] rate must be positive");
    const StochSourceSpec& ss = spec.stoch_source;
    util::require(ss.users >= 1.0, "spec: [source] users must be >= 1");
    // The DAG stochastic bounds use the rate/burst leaky bucket only, so
    // a stochastic source model on a DAG would be silently ignored.
    util::require(!spec.is_dag() || (ss.model.empty() && ss.users == 1.0),
                  "spec: [source] model and users apply to chain specs "
                  "only, not to a [topology] DAG");
    if (ss.model == "onoff") {
      util::require(ss.peak > DataRate::bytes_per_sec(0),
                    "spec: onoff source needs a positive peak rate");
      util::require(ss.mean_on > util::Duration::seconds(0) &&
                        ss.mean_off > util::Duration::seconds(0),
                    "spec: onoff source needs positive mean_on and mean_off");
    } else if (ss.model == "poisson") {
      util::require(ss.lambda > 0.0,
                    "spec: poisson source needs a positive lambda");
      util::require(spec.source.packet > util::DataSize::bytes(0),
                    "spec: poisson source needs a positive packet size");
    }
  }
  return spec;
}

}  // namespace

Spec parse_spec(std::string_view text) {
  return parse_spec_impl(text, /*validate=*/true);
}

Spec parse_spec_lenient(std::string_view text) {
  return parse_spec_impl(text, /*validate=*/false);
}

}  // namespace streamcalc::cli
