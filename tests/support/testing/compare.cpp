#include "testing/compare.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/format.hpp"

namespace streamcalc::testing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool above(double a, double b, double rtol, double atol) {
  if (a == kInf) return b != kInf;
  if (b == kInf) return false;
  return a > b + atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

struct ValueRange {
  double lo, hi;
};

/// Every value the curve can take at t under a breakpoint-abscissa
/// perturbation of a few ulps. Constructed breakpoints (operand sums,
/// crossing abscissae) are not exactly representable, so two curves that
/// are equal as functions may place the same breakpoint one ulp apart;
/// near a steep piece the pointwise difference is then O(slope * ulp(t)),
/// and at a jump it is the full jump height. Comparing value *ranges* over
/// the ulp neighbourhood absorbs exactly that placement freedom while
/// still flagging any divergence wider than a few ulps.
ValueRange value_range(const minplus::Curve& c, double t, bool right_limit) {
  const double xtol =
      4.0 * std::numeric_limits<double>::epsilon() * (1.0 + std::fabs(t));
  const double lo_t = std::max(0.0, t - xtol);
  const double hi_t = t + xtol;
  if (right_limit) return {c.value_right(lo_t), c.value_right(hi_t)};
  return {c.value(lo_t), c.value(hi_t)};
}

double max_finite_slope(const minplus::Curve& c) {
  double m = 0.0;
  for (const minplus::Segment& s : c.segments()) {
    if (s.slope != kInf) m = std::max(m, s.slope);
  }
  return m;
}

template <typename Bad>
std::optional<CurveGap> first_probe(const minplus::Curve& a,
                                    const minplus::Curve& b,
                                    const Bad& bad) {
  // Conditioning-aware slack: a crossing against a piece of slope m cannot
  // be located better than one ulp in the abscissa, so its breakpoint
  // value — and, through the monotonicity chain, the whole tail after
  // it — carries an inherent O(m * ulp(t)) offset. Any algorithm storing
  // breakpoints as doubles has this error floor; the comparator must not
  // flag it.
  const double mslope = std::max(max_finite_slope(a), max_finite_slope(b));
  for (const double t : probe_times(a, b)) {
    const double slack = 8.0 * std::numeric_limits<double>::epsilon() *
                         (1.0 + std::fabs(t)) * mslope;
    for (const bool right_limit : {false, true}) {
      const ValueRange ra = value_range(a, t, right_limit);
      const ValueRange rb = value_range(b, t, right_limit);
      if (bad(ra, rb, slack)) {
        const double va = right_limit ? a.value_right(t) : a.value(t);
        const double vb = right_limit ? b.value_right(t) : b.value(t);
        return CurveGap{t, va, vb, right_limit};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<double> probe_times(const minplus::Curve& a,
                                const minplus::Curve& b) {
  std::vector<double> xs;
  for (const minplus::Curve* c : {&a, &b}) {
    for (const minplus::Segment& s : c->segments()) xs.push_back(s.x);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  std::vector<double> probes;
  probes.reserve(xs.size() * 2 + 3);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    probes.push_back(xs[i]);
    if (i + 1 < xs.size()) probes.push_back(0.5 * (xs[i] + xs[i + 1]));
  }
  // Past the joint last breakpoint both curves are affine; two distinct
  // probes pin both tail value and tail slope.
  const double last = xs.empty() ? 0.0 : xs.back();
  const double unit = 1.0 + std::fabs(last);
  probes.push_back(last + 0.5 * unit);
  probes.push_back(last + 2.0 * unit);
  return probes;
}

std::optional<CurveGap> first_gap(const minplus::Curve& a,
                                  const minplus::Curve& b, double rtol,
                                  double atol) {
  return first_probe(
      a, b, [&](const ValueRange& x, const ValueRange& y, double slack) {
        return above(x.lo, y.hi, rtol, atol + slack) ||
               above(y.lo, x.hi, rtol, atol + slack);
      });
}

std::optional<CurveGap> first_above(const minplus::Curve& a,
                                    const minplus::Curve& b, double rtol,
                                    double atol) {
  return first_probe(
      a, b, [&](const ValueRange& x, const ValueRange& y, double slack) {
        return above(x.lo, y.hi, rtol, atol + slack);
      });
}

std::string gap_str(const CurveGap& gap) {
  std::ostringstream os;
  os << "at t=" << util::format_significant(gap.t, 17)
     << (gap.right_limit ? " (right limit)" : "") << ": lhs="
     << util::format_significant(gap.a_value, 17)
     << ", rhs=" << util::format_significant(gap.b_value, 17);
  return os.str();
}

std::string bit_diff(const minplus::Curve& a, const minplus::Curve& b) {
  const auto& sa = a.segments();
  const auto& sb = b.segments();
  if (sa.size() != sb.size()) {
    return "segment count " + std::to_string(sa.size()) + " vs " +
           std::to_string(sb.size());
  }
  for (std::size_t k = 0; k < sa.size(); ++k) {
    const double lhs[] = {sa[k].x, sa[k].value_at, sa[k].value_after,
                          sa[k].slope};
    const double rhs[] = {sb[k].x, sb[k].value_at, sb[k].value_after,
                          sb[k].slope};
    for (int f = 0; f < 4; ++f) {
      if (std::bit_cast<std::uint64_t>(lhs[f]) !=
          std::bit_cast<std::uint64_t>(rhs[f])) {
        return "segment " + std::to_string(k) + " field " +
               std::to_string(f) + ": " + std::to_string(lhs[f]) + " vs " +
               std::to_string(rhs[f]);
      }
    }
  }
  return "";
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string trace_diff(const char* what,
                       const std::vector<std::pair<double, double>>& a,
                       const std::vector<std::pair<double, double>>& b) {
  if (a.size() != b.size()) {
    return std::string(what) + " sizes " + std::to_string(a.size()) +
           " vs " + std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].first, b[i].first) ||
        !same_bits(a[i].second, b[i].second)) {
      std::ostringstream os;
      os << what << "[" << i << "] (" << a[i].first << ", " << a[i].second
         << ") vs (" << b[i].first << ", " << b[i].second << ")";
      return os.str();
    }
  }
  return "";
}

}  // namespace

std::string bit_diff(const streamsim::SimResult& a,
                     const streamsim::SimResult& b) {
  const std::pair<const char*, std::pair<double, double>> scalars[] = {
      {"throughput",
       {a.throughput.in_bytes_per_sec(), b.throughput.in_bytes_per_sec()}},
      {"min_delay", {a.min_delay.in_seconds(), b.min_delay.in_seconds()}},
      {"max_delay", {a.max_delay.in_seconds(), b.max_delay.in_seconds()}},
      {"mean_delay", {a.mean_delay.in_seconds(), b.mean_delay.in_seconds()}},
      {"max_backlog", {a.max_backlog.in_bytes(), b.max_backlog.in_bytes()}},
  };
  std::ostringstream os;
  for (const auto& [name, v] : scalars) {
    if (!same_bits(v.first, v.second)) {
      os << name << " " << v.first << " vs " << v.second;
      return os.str();
    }
  }
  if (a.packets_delivered != b.packets_delivered) {
    os << "packets_delivered " << a.packets_delivered << " vs "
       << b.packets_delivered;
    return os.str();
  }
  for (const std::string& d :
       {trace_diff("output_trace", a.output_trace, b.output_trace),
        trace_diff("backlog_trace", a.backlog_trace, b.backlog_trace),
        trace_diff("delay_trace", a.delay_trace, b.delay_trace)}) {
    if (!d.empty()) return d;
  }
  if (a.node_stats.size() != b.node_stats.size()) {
    return "node_stats sizes differ";
  }
  for (std::size_t i = 0; i < a.node_stats.size(); ++i) {
    const streamsim::NodeStats& x = a.node_stats[i];
    const streamsim::NodeStats& y = b.node_stats[i];
    if (x.name != y.name || x.jobs != y.jobs ||
        !same_bits(x.utilization, y.utilization)) {
      os << "node " << i << " (" << x.name << "): jobs " << x.jobs << " vs "
         << y.jobs << ", utilization " << x.utilization << " vs "
         << y.utilization;
      return os.str();
    }
  }
  return "";
}

std::vector<std::string> differing_fields(const streamsim::SimResult& a,
                                          const streamsim::SimResult& b) {
  std::vector<std::string> out;
  const auto check = [&](const char* name, bool same) {
    if (!same) out.emplace_back(name);
  };
  check("throughput", same_bits(a.throughput.in_bytes_per_sec(),
                                b.throughput.in_bytes_per_sec()));
  check("min_delay",
        same_bits(a.min_delay.in_seconds(), b.min_delay.in_seconds()));
  check("max_delay",
        same_bits(a.max_delay.in_seconds(), b.max_delay.in_seconds()));
  check("mean_delay",
        same_bits(a.mean_delay.in_seconds(), b.mean_delay.in_seconds()));
  check("max_backlog",
        same_bits(a.max_backlog.in_bytes(), b.max_backlog.in_bytes()));
  check("packets_delivered", a.packets_delivered == b.packets_delivered);
  check("output_trace",
        trace_diff("", a.output_trace, b.output_trace).empty());
  check("backlog_trace",
        trace_diff("", a.backlog_trace, b.backlog_trace).empty());
  check("delay_trace", trace_diff("", a.delay_trace, b.delay_trace).empty());
  bool nodes = a.node_stats.size() == b.node_stats.size();
  for (std::size_t i = 0; nodes && i < a.node_stats.size(); ++i) {
    const streamsim::NodeStats& x = a.node_stats[i];
    const streamsim::NodeStats& y = b.node_stats[i];
    nodes = x.name == y.name && x.jobs == y.jobs &&
            same_bits(x.utilization, y.utilization);
  }
  check("node_stats", nodes);
  return out;
}

std::uint64_t bit_digest(const streamsim::SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto word = [&](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((w >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  const auto real = [&](double v) { word(std::bit_cast<std::uint64_t>(v)); };
  real(r.throughput.in_bytes_per_sec());
  real(r.min_delay.in_seconds());
  real(r.max_delay.in_seconds());
  real(r.mean_delay.in_seconds());
  real(r.max_backlog.in_bytes());
  word(r.packets_delivered);
  for (const auto* trace :
       {&r.output_trace, &r.backlog_trace, &r.delay_trace}) {
    word(trace->size());
    for (const auto& [t, v] : *trace) {
      real(t);
      real(v);
    }
  }
  word(r.node_stats.size());
  for (const streamsim::NodeStats& n : r.node_stats) {
    word(n.name.size());
    for (const char c : n.name) word(static_cast<unsigned char>(c));
    real(n.utilization);
    word(n.jobs);
  }
  return h;
}

}  // namespace streamcalc::testing
