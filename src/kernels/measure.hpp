// Isolated per-stage throughput measurement — the paper's methodology:
// "we will test each stage in isolation and measure performance in
// isolation" (Section 5), then feed the min/avg/max rates into the models.
//
// measure_stage() runs a callable over a set of data blocks, times each
// invocation with the steady clock, and returns the observed rate spread
// plus a ready-to-use netcalc::NodeSpec.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "netcalc/node.hpp"
#include "util/units.hpp"

namespace streamcalc::kernels {

/// Observed timing of one stage over repeated block invocations.
struct StageMeasurement {
  std::string name;
  util::DataSize block;        ///< input bytes per invocation
  util::Duration time_min;     ///< fastest observed per-block time
  util::Duration time_avg;     ///< mean per-block time
  util::Duration time_max;     ///< slowest observed per-block time
  util::DataRate rate_min;     ///< block / time_max
  util::DataRate rate_avg;
  util::DataRate rate_max;     ///< block / time_min
  double volume_ratio_min = 1.0;  ///< observed output/input byte ratios
  double volume_ratio_avg = 1.0;
  double volume_ratio_max = 1.0;
  std::size_t invocations = 0;

  /// Converts the measurement into a pipeline-model NodeSpec.
  netcalc::NodeSpec to_node(netcalc::NodeKind kind,
                            util::DataSize block_out) const;
};

/// A stage under measurement: given one input block, processes it and
/// returns the number of output bytes produced (for volume-ratio
/// observation).
using StageFn = std::function<std::size_t(std::span<const std::uint8_t>)>;

/// Monotonic time source in seconds. An empty StageClock means the steady
/// clock; a scripted one makes the measured spread exact.
using StageClock = std::function<double()>;

/// Runs `fn` over every block `repeats` times (after one untimed warm-up
/// pass) and collects the per-invocation rate/volume spread. Blocks may
/// differ in size (rates are computed per invocation and the reported
/// block is the mean size). Requires at least one non-empty block and
/// repeats >= 1.
StageMeasurement measure_stage(
    std::string name, const StageFn& fn,
    std::span<const std::vector<std::uint8_t>> blocks, int repeats = 3,
    const StageClock& clock = {});

}  // namespace streamcalc::kernels
