#include "cli/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace streamcalc::cli {

namespace {

using util::DataRate;
using util::DataSize;
using util::Duration;

/// The C locale's isspace set, which the CLI runs in, without the locale
/// lookup.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

[[noreturn]] void fail(const std::string& message) {
  throw util::PreconditionError("spec: " + message);
}

[[noreturn]] void fail_at(int line, const std::string& message) {
  fail("line " + std::to_string(line) + ": " + message);
}

/// The number `text` holds, all of it; a failure names `line` when given.
double parse_number(std::string_view text, std::string_view what,
                    int line = 0) {
  const std::string_view t = trim(text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    const std::string message = "cannot parse " + std::string(what) +
                                " number from '" + std::string(text) + "'";
    if (line > 0) fail_at(line, message);
    fail(message);
  }
  return value;
}

/// The whitespace-separated words of `text`.
std::vector<std::string_view> words(std::string_view text) {
  std::vector<std::string_view> out;
  for (;;) {
    text = trim(text);
    if (text.empty()) return out;
    std::size_t end = 0;
    while (end < text.size() && !is_space(text[end])) ++end;
    out.push_back(text.substr(0, end));
    text.remove_prefix(end);
  }
}

struct Quantity {
  double value;
  std::string_view unit;
};

/// Splits "123.4 MiB/s" into the number and the unit token.
Quantity split_quantity(std::string_view text, std::string_view what) {
  const std::string_view t = trim(text);
  std::size_t i = 0;
  while (i < t.size() && (is_digit(t[i]) || t[i] == '.' || t[i] == '+' ||
                          t[i] == '-' || t[i] == 'e' || t[i] == 'E')) {
    // Stop at an 'e'/'E' that begins a unit rather than an exponent.
    if ((t[i] == 'e' || t[i] == 'E') &&
        (i + 1 >= t.size() ||
         (!is_digit(t[i + 1]) && t[i + 1] != '+' && t[i + 1] != '-'))) {
      break;
    }
    ++i;
  }
  return {parse_number(t.substr(0, i), what), trim(t.substr(i))};
}

}  // namespace

DataSize parse_size(std::string_view text) {
  const auto [value, unit] = split_quantity(text, "size");
  if (unit == "B") return DataSize::bytes(value);
  if (unit == "KiB") return DataSize::kib(value);
  if (unit == "MiB") return DataSize::mib(value);
  if (unit == "GiB") return DataSize::gib(value);
  fail("unknown size unit '" + std::string(unit) +
       "' (use B, KiB, MiB, GiB)");
}

DataRate parse_rate(std::string_view text) {
  const auto [value, unit] = split_quantity(text, "rate");
  if (unit == "B/s") return DataRate::bytes_per_sec(value);
  if (unit == "KiB/s") return DataRate::kib_per_sec(value);
  if (unit == "MiB/s") return DataRate::mib_per_sec(value);
  if (unit == "GiB/s") return DataRate::gib_per_sec(value);
  fail("unknown rate unit '" + std::string(unit) +
       "' (use B/s, KiB/s, MiB/s, GiB/s)");
}

Duration parse_duration(std::string_view text) {
  const auto [value, unit] = split_quantity(text, "duration");
  if (unit == "s") return Duration::seconds(value);
  if (unit == "ms") return Duration::millis(value);
  if (unit == "us") return Duration::micros(value);
  if (unit == "ns") return Duration::nanos(value);
  fail("unknown duration unit '" + std::string(unit) +
       "' (use s, ms, us, ns)");
}

namespace {

bool parse_bool(std::string_view text, int line) {
  const std::string_view t = trim(text);
  if (t == "true" || t == "yes" || t == "1") return true;
  if (t == "false" || t == "no" || t == "0") return false;
  fail_at(line, "expected a boolean, got '" + std::string(text) + "'");
}

/// A whole number in [min, 2^64), written as any number parse_number
/// reads ("42", "4.0", "1e3"). Anything else (NaN, infinity, a fraction,
/// a value out of range) is an error: casting it would be undefined.
std::uint64_t parse_count(std::string_view text, std::string_view key,
                          int line, std::uint64_t min) {
  const double v = parse_number(text, key);
  // 2^64 is the first double past the uint64_t range.
  if (!(v >= static_cast<double>(min) && v < 18446744073709551616.0 &&
        v == std::floor(v))) {
    fail_at(line, std::string(key) + " must be an integer in [" +
                      std::to_string(min) + ", 2^64), got '" +
                      std::string(text) + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// One `key = value` line; both views point into the spec text.
struct Entry {
  std::string_view key;
  std::string_view value;
  int line = 0;
  bool taken = false;
};

/// A `[kind name]` header and its entries, [begin, end) of the document's
/// one entry table, in text order.
struct Section {
  std::string_view kind;  // "source", "node", "policy", "analysis", ...
  std::string_view name;  // node name for [node X]
  int line = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct Document {
  std::vector<Section> sections;
  std::vector<Entry> entries;
};

Document split_sections(std::string_view text) {
  Document doc;
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
      if (line.back() != ']') fail_at(line_no, "unterminated section");
      const std::string_view inner = trim(line.substr(1, line.size() - 2));
      Section s;
      s.line = line_no;
      s.begin = s.end = doc.entries.size();
      const std::size_t space = inner.find(' ');
      if (space == std::string_view::npos) {
        s.kind = inner;
      } else {
        s.kind = trim(inner.substr(0, space));
        s.name = trim(inner.substr(space + 1));
      }
      doc.sections.push_back(s);
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail_at(line_no, "expected 'key = value'");
    }
    if (doc.sections.empty()) {
      fail_at(line_no, "key/value before any [section]");
    }
    doc.entries.push_back(
        {trim(line.substr(0, eq)), trim(line.substr(eq + 1)), line_no});
    doc.sections.back().end = doc.entries.size();
  }
  return doc;
}

/// Consumable view over a section's entries that rejects duplicate and
/// unknown keys. It sorts the entries by key (then line), so a duplicate is
/// reported at its later line, `take` is a binary search and `finish`
/// names the alphabetically first key nothing took.
class Keys {
 public:
  Keys(Document& doc, const Section& s)
      : section_(s),
        first_(doc.entries.data() + s.begin),
        last_(doc.entries.data() + s.end) {
    std::sort(first_, last_, [](const Entry& a, const Entry& b) {
      return a.key != b.key ? a.key < b.key : a.line < b.line;
    });
    // Of all repeats, the one earliest in the text is the first a
    // line-by-line reader meets.
    const Entry* repeat = nullptr;
    for (const Entry* e = first_; e + 1 < last_; ++e) {
      if (e->key == e[1].key &&
          (repeat == nullptr || e[1].line < repeat->line)) {
        repeat = e + 1;
      }
    }
    if (repeat != nullptr) {
      fail_at(repeat->line,
              "duplicate key '" + std::string(repeat->key) + "'");
    }
  }

  /// The entry of `key`, or nullptr when the section has none.
  const Entry* take(std::string_view key) {
    Entry* e = std::lower_bound(
        first_, last_, key,
        [](const Entry& a, std::string_view k) { return a.key < k; });
    if (e == last_ || e->key != key) return nullptr;
    e->taken = true;
    return e;
  }

  void finish() const {
    for (const Entry* e = first_; e != last_; ++e) {
      if (e->taken) continue;
      std::string where(section_.kind);
      if (!section_.name.empty()) (where += ' ') += section_.name;
      fail_at(e->line, "unknown key '" + std::string(e->key) + "' in [" +
                           where + "]");
    }
  }

 private:
  const Section& section_;
  Entry* first_;
  Entry* last_;
};

netcalc::NodeKind parse_kind(std::string_view text, int line) {
  if (text == "compute") return netcalc::NodeKind::kCompute;
  if (text == "network") return netcalc::NodeKind::kNetworkLink;
  if (text == "pcie") return netcalc::NodeKind::kPcieLink;
  fail_at(line, "unknown node kind '" + std::string(text) +
                    "' (use compute, network, pcie)");
}

netcalc::RateBasis parse_basis(std::string_view text, int line) {
  if (text == "min") return netcalc::RateBasis::kMin;
  if (text == "avg") return netcalc::RateBasis::kAvg;
  if (text == "max") return netcalc::RateBasis::kMax;
  fail_at(line, "unknown rate basis '" + std::string(text) +
                    "' (use min, avg, max)");
}

netcalc::NodeSpec parse_node(Document& doc, const Section& s, bool validate) {
  if (s.name.empty()) {
    fail_at(s.line, "node sections need a name ([node myname])");
  }
  Keys keys(doc, s);
  netcalc::NodeKind kind = netcalc::NodeKind::kCompute;
  if (auto* v = keys.take("kind")) kind = parse_kind(v->value, s.line);
  netcalc::NodeSpec n;
  n.name = s.name;
  n.kind = kind;

  if (auto* bw = keys.take("bandwidth")) {
    // Link shorthand.
    DataSize packet = DataSize::kib(64);
    if (auto* v = keys.take("packet")) packet = parse_size(v->value);
    Duration prop = Duration::seconds(0);
    if (auto* v = keys.take("propagation")) prop = parse_duration(v->value);
    n = netcalc::NodeSpec::link(std::string(s.name), kind,
                                parse_rate(bw->value), packet, prop);
  } else {
    if (auto* v = keys.take("block_in")) n.block_in = parse_size(v->value);
    n.block_out = n.block_in;
    if (auto* v = keys.take("block_out")) n.block_out = parse_size(v->value);
    if (auto* v = keys.take("time_min")) n.time_min = parse_duration(v->value);
    if (auto* v = keys.take("time_avg")) n.time_avg = parse_duration(v->value);
    if (auto* v = keys.take("time_max")) n.time_max = parse_duration(v->value);
    const Entry* rmin = keys.take("rate_min");
    const Entry* ravg = keys.take("rate_avg");
    const Entry* rmax = keys.take("rate_max");
    if (rmin || ravg || rmax) {
      if (!(rmin && ravg && rmax)) {
        fail_at(s.line, "rate_min/rate_avg/rate_max must be given together");
      }
      if (n.block_in == DataSize::bytes(0)) {
        fail_at(s.line, "rates need block_in to derive per-job times");
      }
      n.time_min = n.block_in / parse_rate(rmax->value);
      n.time_avg = n.block_in / parse_rate(ravg->value);
      n.time_max = n.block_in / parse_rate(rmin->value);
    }
  }
  if (auto* v = keys.take("volume")) {
    n.volume = netcalc::VolumeRatio::exact(parse_number(v->value, "volume"));
  }
  {
    // Explicit bytes-out-per-byte-in spread (e.g. a decompressor's
    // expansion range, which runs opposite to `compression`).
    const Entry* vmin = keys.take("volume_min");
    const Entry* vavg = keys.take("volume_avg");
    const Entry* vmax = keys.take("volume_max");
    if (vmin || vavg || vmax) {
      if (!(vmin && vavg && vmax)) {
        fail_at(s.line,
                "volume_min/volume_avg/volume_max must be given together");
      }
      n.volume = netcalc::VolumeRatio{parse_number(vmin->value, "volume_min"),
                                      parse_number(vavg->value, "volume_avg"),
                                      parse_number(vmax->value, "volume_max")};
    }
  }
  if (auto* v = keys.take("compression")) {
    // "min avg max" observed compression ratios.
    const std::vector<std::string_view> r = words(v->value);
    if (r.size() != 3) {
      fail_at(v->line, "compression expects three ratios 'min avg max'");
    }
    n.volume = netcalc::VolumeRatio::from_compression(
        parse_number(r[0], "compression", v->line),
        parse_number(r[1], "compression", v->line),
        parse_number(r[2], "compression", v->line));
  }
  if (auto* v = keys.take("restores_volume")) {
    n.restores_volume = parse_bool(v->value, s.line);
  }
  if (auto* v = keys.take("aggregates")) {
    n.aggregates = parse_bool(v->value, s.line);
  }
  if (auto* v = keys.take("latency")) {
    n.latency_override = parse_duration(v->value);
  }
  if (auto* v = keys.take("rate_isolated")) {
    n.rate_isolated = parse_rate(v->value);
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

/// "from to [fraction]" or "to [fraction]" (entries) with node-name
/// lookup; the fraction defaults to 1.
netcalc::DagEdge parse_topology_edge(
    const Entry& line, const std::vector<netcalc::NodeSpec>& nodes) {
  const bool entry = line.key == "entry";
  const auto index_of = [&](std::string_view name) -> std::size_t {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].name == name) return i;
    }
    fail_at(line.line, "unknown node '" + std::string(name) + "'");
  };
  const std::vector<std::string_view> w = words(line.value);
  const std::size_t names = entry ? 1 : 2;
  if (w.size() < names || w.size() > names + 1) {
    fail_at(line.line, entry ? "entry expects '<node> [fraction]'"
                             : "edge expects '<from> <to> [fraction]'");
  }
  netcalc::DagEdge e;
  if (!entry) e.from = index_of(w[0]);
  e.to = index_of(w[names - 1]);
  e.fraction = w.size() > names
                   ? parse_number(w[names], "fraction", line.line)
                   : 1.0;
  return e;
}

Spec parse_spec_impl(std::string_view text, bool validate) {
  Spec spec;
  bool have_source = false;
  // Topology lines are resolved after all nodes are known.
  std::vector<const Entry*> topology;
  Document doc = split_sections(text);
  for (const Section& s : doc.sections) {
    if (s.kind == "source") {
      have_source = true;
      Keys keys(doc, s);
      if (auto* v = keys.take("rate")) spec.source.rate = parse_rate(v->value);
      if (auto* v = keys.take("burst")) {
        spec.source.burst = parse_size(v->value);
      }
      if (auto* v = keys.take("packet")) {
        spec.source.packet = parse_size(v->value);
      }
      if (auto* v = keys.take("job")) {
        spec.source.job_volume = parse_size(v->value);
      }
      if (auto* v = keys.take("model")) {
        if (v->value != "onoff" && v->value != "poisson" &&
            v->value != "leaky") {
          fail_at(s.line,
                  "[source] model must be onoff, poisson, or leaky (got '" +
                      std::string(v->value) + "')");
        }
        spec.stoch_source.model = v->value;
      }
      if (auto* v = keys.take("users")) {
        spec.stoch_source.users = parse_number(v->value, "users");
      }
      if (auto* v = keys.take("peak")) {
        spec.stoch_source.peak = parse_rate(v->value);
      }
      if (auto* v = keys.take("mean_on")) {
        spec.stoch_source.mean_on = parse_duration(v->value);
      }
      if (auto* v = keys.take("mean_off")) {
        spec.stoch_source.mean_off = parse_duration(v->value);
      }
      if (auto* v = keys.take("lambda")) {
        spec.stoch_source.lambda = parse_number(v->value, "lambda");
      }
      keys.finish();
    } else if (s.kind == "node") {
      spec.nodes.push_back(parse_node(doc, s, validate));
    } else if (s.kind == "policy") {
      Keys keys(doc, s);
      if (auto* v = keys.take("service_basis")) {
        spec.policy.service_basis = parse_basis(v->value, s.line);
      }
      if (auto* v = keys.take("max_service_basis")) {
        spec.policy.max_service_basis = parse_basis(v->value, s.line);
      }
      if (auto* v = keys.take("max_service_latency")) {
        spec.policy.max_service_latency = parse_bool(v->value, s.line);
      }
      if (auto* v = keys.take("packetize")) {
        spec.policy.packetize = parse_bool(v->value, s.line);
      }
      keys.finish();
    } else if (s.kind == "topology") {
      for (std::size_t i = s.begin; i < s.end; ++i) {
        const Entry& e = doc.entries[i];
        if (e.key != "edge" && e.key != "entry") {
          fail_at(e.line, "[topology] accepts only 'edge' and 'entry' keys");
        }
        topology.push_back(&e);
      }
    } else if (s.kind == "analysis") {
      Keys keys(doc, s);
      if (auto* v = keys.take("horizon")) {
        spec.analysis.horizon = parse_duration(v->value);
      }
      if (auto* v = keys.take("simulate")) {
        spec.analysis.simulate = parse_bool(v->value, s.line);
      }
      if (auto* v = keys.take("seed")) {
        spec.analysis.seed = parse_count(v->value, "seed", v->line, 0);
      }
      if (auto* v = keys.take("queue_capacity")) {
        spec.analysis.queue_capacity = static_cast<std::size_t>(
            parse_count(v->value, "queue_capacity", v->line, 1));
      }
      keys.finish();
    } else {
      fail_at(s.line, "unknown section [" + std::string(s.kind) + "]");
    }
  }
  if (!have_source) fail("missing [source] section");
  if (spec.nodes.empty()) fail("no [node ...] sections");
  for (const Entry* line : topology) {
    (line->key == "entry" ? spec.entries : spec.edges)
        .push_back(parse_topology_edge(*line, spec.nodes));
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
