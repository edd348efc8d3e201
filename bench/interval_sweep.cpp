// Interval-certification soak: sweep a capacity-planning parameter grid
// (the BLAST offered-load sweep of examples/capacity_planning.cpp, widened
// with service-rate uncertainty) and cross-check every box verdict against
// independent per-point nclint verdicts at the box corners.
//
// The interval propagation is monotone in each parameter, so its verdict
// must satisfy, for every box:
//   * stable everywhere   <=>  no corner lints NC101,
//   * unstable everywhere  =>  every corner lints NC101.
// The corner models are built by scaling the NodeSpec execution times
// directly (rate = block/time), so the point verdicts share no code with
// the interval arithmetic. Any inconsistency is printed and the process
// exits nonzero — run nightly as a soak (see .github/workflows/ci.yml).
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "apps/blast.hpp"
#include "certify/interval.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/node.hpp"
#include "report.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using streamcalc::certify::IntervalCertificate;
using streamcalc::certify::ParamBox;
using streamcalc::netcalc::NodeSpec;
using streamcalc::netcalc::SourceSpec;

namespace blast = streamcalc::apps::blast;
namespace diag = streamcalc::diagnostics;

/// A node running at `scale` times its nominal service rate: every
/// per-job execution time shrinks by the same factor.
NodeSpec scaled_node(NodeSpec node, double scale) {
  node.time_min = streamcalc::util::Duration::seconds(
      node.time_min.in_seconds() / scale);
  node.time_max = streamcalc::util::Duration::seconds(
      node.time_max.in_seconds() / scale);
  node.time_avg = streamcalc::util::Duration::seconds(
      node.time_avg.in_seconds() / scale);
  return node;
}

/// nclint's per-point stability verdict at one corner of the box.
bool corner_unstable(const std::vector<NodeSpec>& nodes,
                     const SourceSpec& base, double rate_bps,
                     const std::vector<double>& scales) {
  SourceSpec src = base;
  src.rate = streamcalc::util::DataRate::bytes_per_sec(rate_bps);
  std::vector<NodeSpec> scaled;
  scaled.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    scaled.push_back(scaled_node(nodes[i], scales[i]));
  }
  return diag::lint_pipeline(scaled, src, blast::policy())
      .has_code("NC101");
}

struct CornerStats {
  int unstable = 0;
  int total = 0;
};

/// Enumerates every corner (source rate x each node's service scale).
CornerStats sweep_corners(const std::vector<NodeSpec>& nodes,
                          const SourceSpec& base, const ParamBox& box) {
  CornerStats stats;
  const std::size_t n = nodes.size();
  std::vector<double> scales(n, 1.0);
  for (unsigned mask = 0; mask < (1u << (n + 1)); ++mask) {
    const double rate =
        (mask & 1u) ? box.source_rate.hi : box.source_rate.lo;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = box.service_scale[i];
      scales[i] = (mask & (1u << (i + 1))) ? s.hi : s.lo;
    }
    ++stats.total;
    if (corner_unstable(nodes, base, rate, scales)) ++stats.unstable;
  }
  return stats;
}

int run() {
  streamcalc::bench::banner(
      "Interval soak",
      "Box stability verdicts vs per-point lint at every box corner");

  const auto nodes = blast::nodes();
  const SourceSpec base = blast::streaming_source();

  // Offered-load tiles covering the capacity-planning sweep, crossed with
  // three levels of service-rate uncertainty.
  const double grid_mib[] = {150.0, 250.0, 330.0, 352.0, 500.0, 704.0};
  const streamcalc::certify::Interval scale_bands[] = {
      {1.0, 1.0}, {0.9, 1.1}, {0.75, 1.25}};

  streamcalc::util::Table t(
      {"offered [MiB/s]", "service scale", "box verdict", "corners NC101"},
      {streamcalc::util::Align::kRight, streamcalc::util::Align::kRight,
       streamcalc::util::Align::kLeft, streamcalc::util::Align::kRight});

  int inconsistencies = 0;
  for (std::size_t g = 0; g + 1 < std::size(grid_mib); ++g) {
    for (const auto& band : scale_bands) {
      ParamBox box = ParamBox::at(base, nodes.size());
      box.source_rate.lo =
          streamcalc::util::DataRate::mib_per_sec(grid_mib[g])
              .in_bytes_per_sec();
      box.source_rate.hi =
          streamcalc::util::DataRate::mib_per_sec(grid_mib[g + 1])
              .in_bytes_per_sec();
      box.service_scale.assign(nodes.size(), band);

      const IntervalCertificate cert = streamcalc::certify::certify_stability(
          nodes, base, blast::policy(), box);
      const CornerStats corners = sweep_corners(nodes, base, box);

      const char* verdict = cert.stable_everywhere ? "stable"
                            : cert.unstable_everywhere ? "unstable"
                                                       : "partial";
      t.add_row({streamcalc::util::format_significant(grid_mib[g]) + " .. " +
                     streamcalc::util::format_significant(grid_mib[g + 1]),
                 streamcalc::util::format_significant(band.lo) + " .. " +
                     streamcalc::util::format_significant(band.hi),
                 verdict,
                 std::to_string(corners.unstable) + "/" +
                     std::to_string(corners.total)});

      if (cert.stable_everywhere != (corners.unstable == 0)) {
        ++inconsistencies;
        std::fprintf(stderr,
                     "INCONSISTENT: box [%g, %g] MiB/s x scale [%g, %g]: "
                     "box says %s but %d/%d corners lint NC101\n",
                     grid_mib[g], grid_mib[g + 1], band.lo, band.hi, verdict,
                     corners.unstable, corners.total);
      }
      if (cert.unstable_everywhere &&
          corners.unstable != corners.total) {
        ++inconsistencies;
        std::fprintf(stderr,
                     "INCONSISTENT: box [%g, %g] MiB/s x scale [%g, %g] "
                     "claims instability everywhere but only %d/%d corners "
                     "lint NC101\n",
                     grid_mib[g], grid_mib[g + 1], band.lo, band.hi,
                     corners.unstable, corners.total);
      }
    }
  }
  std::fputs(t.render().c_str(), stdout);

  if (inconsistencies > 0) {
    std::fprintf(stderr, "%d inconsistent box verdict(s)\n", inconsistencies);
    return 1;
  }
  std::printf("\nall box verdicts consistent with per-point lint at every "
              "corner\n");
  return 0;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
