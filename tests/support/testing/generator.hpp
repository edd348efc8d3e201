// Seeded random generators for the verification harness: piecewise-linear
// curves drawn from the standard network-calculus families (token buckets,
// rate-latency, staircases, burst-delay) plus general and deliberately
// pathological shapes, and random pipeline scenarios (NodeSpec chains with
// volume changes and block aggregation).
//
// Everything here is deterministic in the seed: the same (config, seed)
// pair always produces the same sequence of values, so a fuzzing failure
// can be replayed exactly from the (seed, case index) printed in its
// report. Generated curves are always *valid* (they pass Curve's
// constructor checks); "pathological" means structurally nasty —
// near-degenerate micro-segments, nearly-equal slopes, huge magnitudes,
// infinite tails — not invalid.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minplus/curve.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace streamcalc::testing {

/// What shape class a property needs for an operand.
enum class CurveKind {
  kAny,      ///< any valid curve, possibly with an infinite tail
  kFinite,   ///< finite everywhere (no delta-style jump to +inf)
  kArrival,  ///< arrival-curve shaped: 0 at 0, mostly concave, finite
  kService,  ///< service-curve shaped: convex, finite, eventually growing
};

const char* to_string(CurveKind k);

struct CurveGenConfig {
  int max_segments = 6;        ///< cap on pieces of general random curves
  double max_slope = 8.0;      ///< slope scale of generated pieces
  double max_span = 1.5;       ///< max segment length (x units)
  bool allow_jumps = true;     ///< upward discontinuities
  bool allow_infinite = true;  ///< delta-style +inf tails (kAny only)
  /// Probability of post-processing a draw into a pathological variant
  /// (micro-segments, near-equal slopes, huge offsets, time squeeze).
  double pathological_bias = 0.25;
};

/// Deterministic random curve source. Draws cycle through the named
/// constructor families, general piecewise shapes, min/max/sum composites,
/// and pathological perturbations of any of those.
class CurveGenerator {
 public:
  CurveGenerator(CurveGenConfig config, std::uint64_t seed);

  /// Next curve of the requested kind.
  minplus::Curve next(CurveKind kind = CurveKind::kAny);

  /// The underlying RNG, for properties that also need scalars (evaluation
  /// points, tolerances) tied to the same replayable stream.
  util::Xoshiro256& rng() { return rng_; }

  const CurveGenConfig& config() const { return config_; }

 private:
  minplus::Curve family_draw(CurveKind kind, int depth);
  minplus::Curve general_draw(bool allow_inf);
  minplus::Curve pathological(const minplus::Curve& base);

  CurveGenConfig config_;
  util::Xoshiro256 rng_;
};

/// A generated pipeline: the inputs every model (NC, DES, M/M/1) consumes.
struct Scenario {
  std::vector<netcalc::NodeSpec> nodes;
  netcalc::SourceSpec source;
  /// One-line description (stage rates/blocks/volumes + source) for
  /// failure reports.
  std::string describe() const;
};

struct ScenarioGenConfig {
  int min_stages = 1;
  int max_stages = 5;
  /// Allow stages whose volume ratio is != 1 (filters / expanders).
  bool volume_changes = true;
  /// Allow stages that aggregate a larger block than the predecessor emits.
  bool aggregation = true;
  /// Offered load as a fraction of the worst-case normalized bottleneck
  /// rate; keep the upper end < 1 to generate underloaded pipelines.
  double load_lo = 0.3;
  double load_hi = 0.8;
  /// Markov-compatible draws: uniform blocks, exact unit volumes, no
  /// aggregation — the class of pipelines where the M/M/1 tandem model is
  /// exact (Burke/Jackson) and the differential check can be tight.
  bool markovian = false;
};

/// Deterministic random pipeline-scenario source.
class ScenarioGenerator {
 public:
  ScenarioGenerator(ScenarioGenConfig config, std::uint64_t seed);

  Scenario next();

  util::Xoshiro256& rng() { return rng_; }

 private:
  ScenarioGenConfig config_;
  util::Xoshiro256 rng_;
};

/// A scenario dressed with an on/off source population (streamsim
/// SimConfig::onoff_users) whose aggregate mean rate equals the scenario's
/// source rate: 1-8 users, a duty cycle in [0.15, 0.6) and mean on-periods
/// of 20-80 whole packet windows, so on-periods emit plenty of packets and
/// the discarded partial window is a small bias.
struct OnOffScenario {
  Scenario base;
  std::size_t users = 1;
  util::DataRate peak;  ///< per-user on-rate
  util::Duration mean_on;
  util::Duration mean_off;
};

/// Dresses `s`, drawing from `rng` (the scenario generator's stream).
OnOffScenario dress_with_on_off(Scenario s, util::Xoshiro256& rng);

}  // namespace streamcalc::testing
