#include "testing/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "minplus/operations.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace streamcalc::testing {

namespace {

using minplus::Curve;
using minplus::Segment;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Constructs a curve from segments, falling back to `fallback` when the
/// segment list violates a Curve invariant. Perturbation passes synthesize
/// candidate segment lists that are *usually* valid; the fallback keeps the
/// generator total without weakening Curve's own validation.
Curve curve_or(std::vector<Segment> segs, const Curve& fallback) {
  try {
    return Curve(std::move(segs));
  } catch (const util::PreconditionError&) {
    return fallback;
  }
}

}  // namespace

const char* to_string(CurveKind k) {
  switch (k) {
    case CurveKind::kAny:
      return "any";
    case CurveKind::kFinite:
      return "finite";
    case CurveKind::kArrival:
      return "arrival";
    case CurveKind::kService:
      return "service";
  }
  return "?";
}

CurveGenerator::CurveGenerator(CurveGenConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

Curve CurveGenerator::next(CurveKind kind) {
  Curve c = family_draw(kind, /*depth=*/0);
  if (rng_.uniform01() < config_.pathological_bias) {
    Curve p = pathological(c);
    // Pathological rewrites must preserve the requested shape class.
    const bool ok = (kind == CurveKind::kAny) ||
                    (p.is_finite() &&
                     (kind != CurveKind::kArrival ||
                      p.segments().front().value_at == 0.0) &&
                     (kind != CurveKind::kService || p.is_convex()));
    if (ok) return p;
  }
  return c;
}

Curve CurveGenerator::general_draw(bool allow_inf) {
  const int n =
      1 + static_cast<int>(rng_() % static_cast<unsigned>(
                                        std::max(1, config_.max_segments)));
  std::vector<Segment> segs;
  double x = 0.0;
  double y = rng_.uniform01() < 0.5 ? 0.0 : rng_.uniform(0.0, 2.0);
  for (int i = 0; i < n; ++i) {
    double value_after = y;
    if (config_.allow_jumps && rng_.uniform01() < 0.3) {
      value_after += rng_.uniform(0.0, 3.0);
    }
    const double slope =
        rng_.uniform01() < 0.2 ? 0.0 : rng_.uniform(0.0, config_.max_slope);
    segs.push_back(Segment{x, y, value_after, slope});
    const double dx = rng_.uniform(0.05, config_.max_span);
    y = value_after + slope * dx;
    x += dx;
  }
  if (allow_inf && rng_.uniform01() < 0.5) {
    segs.push_back(Segment{x, y, kInf, 0.0});
  }
  return Curve(std::move(segs));
}

Curve CurveGenerator::family_draw(CurveKind kind, int depth) {
  auto rate = [&] { return rng_.uniform(0.05, config_.max_slope); };
  auto burst = [&] { return rng_.uniform(0.0, 4.0); };
  auto latency = [&] { return rng_.uniform(0.0, 2.0); };

  if (kind == CurveKind::kArrival) {
    switch (rng_() % 5) {
      case 0:
        return Curve::rate(rate());
      case 1:
        return Curve::affine(rate(), burst());
      case 2:  // min of two token buckets: concave arrival envelope
        return minplus::minimum(Curve::affine(rate() * 4.0, burst()),
                                Curve::affine(rate(), burst() + 2.0));
      case 3: {  // packetized flow
        const double h = rng_.uniform(0.2, 2.0);
        return Curve::staircase(h, rng_.uniform(0.1, 1.0), latency(),
                                1 + static_cast<int>(rng_() % 5));
      }
      default:
        return Curve::affine(rate(), 0.0);
    }
  }
  if (kind == CurveKind::kService) {
    switch (rng_() % 4) {
      case 0:
        return Curve::rate(rate());
      case 1:
        return Curve::rate_latency(rate(), latency());
      case 2:  // max of two rate-latencies: convex multi-slope service
        return minplus::maximum(Curve::rate_latency(rate(), latency()),
                                Curve::rate_latency(rate() * 3.0,
                                                    latency() + 1.0));
      default:
        return Curve::rate_latency(rate(), rng_.uniform(0.0, 0.3));
    }
  }

  const bool inf_ok = kind == CurveKind::kAny && config_.allow_infinite;
  switch (rng_() % 12) {
    case 0:
      return Curve::zero();
    case 1:
      return Curve::constant(burst());
    case 2:
      return Curve::affine(rate(), burst());
    case 3:
      return Curve::rate(rate());
    case 4:
      return Curve::rate_latency(rate(), latency());
    case 5:
      return inf_ok ? Curve::delta(latency()) : Curve::rate(rate());
    case 6:
      return Curve::step(burst(), rng_.uniform(0.1, 2.0));
    case 7:
      return Curve::staircase(rng_.uniform(0.2, 2.0), rng_.uniform(0.1, 1.0),
                              latency(), 1 + static_cast<int>(rng_() % 5));
    case 8:
    case 9:
      return general_draw(inf_ok);
    default: {
      if (depth >= 2) return general_draw(inf_ok);
      // Composite: combine two shallower draws with a lattice/dioid op.
      const Curve a = family_draw(CurveKind::kAny, depth + 1);
      const Curve b = family_draw(CurveKind::kAny, depth + 1);
      switch (rng_() % 3) {
        case 0:
          return minplus::minimum(a, b);
        case 1:
          return minplus::maximum(a, b);
        default:
          return minplus::add(a, b);
      }
    }
  }
}

Curve CurveGenerator::pathological(const Curve& base) {
  std::vector<Segment> segs = base.segments();
  switch (rng_() % 5) {
    case 0: {
      // Micro-segment: split a piece epsilon after its breakpoint with an
      // infinitesimally different slope — the near-degenerate shape that
      // once slipped past the general kernels' envelope construction.
      const std::size_t i = rng_() % segs.size();
      const Segment s = segs[i];
      if (s.value_after == kInf) return base;
      const double span =
          (i + 1 < segs.size()) ? segs[i + 1].x - s.x : 1.0;
      const double eps = span * rng_.uniform(1e-9, 1e-6);
      Segment wedge{s.x + eps, s.value_after + s.slope * eps,
                    s.value_after + s.slope * eps,
                    s.slope * (1.0 + 1e-12) + 1e-13};
      segs.insert(segs.begin() + static_cast<std::ptrdiff_t>(i) + 1, wedge);
      return curve_or(std::move(segs), base);
    }
    case 1: {
      // Huge magnitudes: scale values so absolute tolerances are useless
      // and only relative comparisons survive.
      return base.scale_value(rng_.uniform(1e6, 1e9));
    }
    case 2: {
      // Time squeeze: compress the breakpoints into a tiny prefix.
      return base.scale_time(rng_.uniform(1e-6, 1e-3));
    }
    case 3: {
      // Micro-jumps: bump every right limit by a sub-tolerance amount.
      for (Segment& s : segs) {
        if (s.value_after != kInf) s.value_after += 1e-12;
      }
      return curve_or(std::move(segs), base);
    }
    default: {
      // Plateau chain: repeat the last finite value across several long
      // zero-slope pieces (exercises inverse plateaus and merge logic).
      Segment last = segs.back();
      if (last.value_after == kInf) return base;
      double x = last.x + 1.0;
      const double y = last.value_after + last.slope * 1.0;
      segs.back().slope = last.slope;
      for (int k = 0; k < 3; ++k) {
        segs.push_back(Segment{x, y, y, 0.0});
        x += rng_.uniform(0.5, 1.5);
      }
      return curve_or(std::move(segs), base);
    }
  }
}

// ---------------------------------------------------------------------------

ScenarioGenerator::ScenarioGenerator(ScenarioGenConfig config,
                                     std::uint64_t seed)
    : config_(config), rng_(seed) {
  util::require(config_.min_stages >= 1 &&
                    config_.max_stages >= config_.min_stages,
                "ScenarioGenConfig requires 1 <= min_stages <= max_stages");
  util::require(config_.load_lo > 0.0 && config_.load_hi >= config_.load_lo,
                "ScenarioGenConfig requires 0 < load_lo <= load_hi");
}

Scenario ScenarioGenerator::next() {
  using util::DataRate;
  using util::DataSize;

  Scenario sc;
  const int n = config_.min_stages +
                static_cast<int>(rng_() % static_cast<unsigned>(
                                              config_.max_stages -
                                              config_.min_stages + 1));
  const DataSize block = DataSize::kib(64);
  // Worst-case input-normalized bottleneck rate: the sustained rate of the
  // sound end-to-end service curve. Volume normalization follows the model:
  // data at stage i is scaled by the *max* volume ratios of stages < i.
  double min_norm_rate = std::numeric_limits<double>::infinity();
  double vol = 1.0;
  DataSize prev_out = block;
  for (int i = 0; i < n; ++i) {
    const double avg = rng_.uniform(60.0, 400.0);  // MiB/s
    const double spread =
        config_.markovian ? 1.0 : rng_.uniform(1.05, 1.6);
    std::string name = "s";
    name += std::to_string(i);
    netcalc::NodeSpec node = netcalc::NodeSpec::from_rates(
        std::move(name), netcalc::NodeKind::kCompute, block,
        DataRate::mib_per_sec(avg / spread), DataRate::mib_per_sec(avg),
        DataRate::mib_per_sec(avg * spread));
    if (config_.volume_changes && !config_.markovian &&
        rng_.uniform01() < 0.35) {
      // Filtering stage: emits fewer bytes than it consumes.
      node.volume = netcalc::VolumeRatio::exact(rng_.uniform(0.3, 0.9));
    }
    if (config_.aggregation && !config_.markovian && i > 0 &&
        rng_.uniform01() < 0.25) {
      // Aggregating stage: collects a larger block than the predecessor
      // emits (the paper's T_n^tot recursion).
      node.block_in = prev_out * 4.0;
      node.block_out = node.block_in;
      node.time_min = node.block_in / DataRate::mib_per_sec(avg * spread);
      node.time_avg = node.block_in / DataRate::mib_per_sec(avg);
      node.time_max = node.block_in / DataRate::mib_per_sec(avg / spread);
    }
    prev_out = node.block_out;
    min_norm_rate = std::min(
        min_norm_rate, (avg / spread) * 1024.0 * 1024.0 / vol);
    vol *= node.volume.max;
    sc.nodes.push_back(std::move(node));
  }
  sc.source.rate = DataRate::bytes_per_sec(
      rng_.uniform(config_.load_lo, config_.load_hi) * min_norm_rate);
  sc.source.burst = config_.markovian ? DataSize::bytes(0) : block;
  sc.source.packet = block;
  return sc;
}

std::string Scenario::describe() const {
  std::ostringstream os;
  os << "source " << util::format_rate(source.rate) << " burst "
     << util::format_size(source.burst) << "; stages:";
  for (const netcalc::NodeSpec& n : nodes) {
    os << " [" << n.name << " block=" << util::format_size(n.block_in)
       << " rate=" << util::format_rate(n.rate_min()) << ".."
       << util::format_rate(n.rate_max());
    if (n.volume.min != 1.0 || n.volume.max != 1.0) {
      os << " vol=" << util::format_significant(n.volume.min) << ".."
         << util::format_significant(n.volume.max);
    }
    os << "]";
  }
  return os.str();
}

OnOffScenario dress_with_on_off(Scenario s, util::Xoshiro256& rng) {
  OnOffScenario out;
  out.users = static_cast<std::size_t>(rng.uniform(1.0, 9.0));
  const double duty = rng.uniform(0.15, 0.6);
  const double mean = s.source.rate.in_bytes_per_sec();
  const double peak = mean / (static_cast<double>(out.users) * duty);
  out.peak = util::DataRate::bytes_per_sec(peak);
  const double window = s.source.packet.in_bytes() / peak;
  const double on = window * rng.uniform(20.0, 80.0);
  out.mean_on = util::Duration::seconds(on);
  out.mean_off = util::Duration::seconds(on * (1.0 - duty) / duty);
  out.base = std::move(s);
  return out;
}

}  // namespace streamcalc::testing
