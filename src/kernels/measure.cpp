#include "kernels/measure.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/error.hpp"

namespace streamcalc::kernels {

netcalc::NodeSpec StageMeasurement::to_node(netcalc::NodeKind kind,
                                            util::DataSize block_out) const {
  netcalc::NodeSpec n;
  n.name = name;
  n.kind = kind;
  n.block_in = block;
  n.block_out = block_out;
  n.time_min = time_min;
  n.time_avg = time_avg;
  n.time_max = time_max;
  n.volume =
      netcalc::VolumeRatio{volume_ratio_min, volume_ratio_avg,
                           volume_ratio_max};
  n.validate();
  return n;
}

StageMeasurement measure_stage(
    std::string name, const StageFn& fn,
    std::span<const std::vector<std::uint8_t>> blocks, int repeats,
    const StageClock& clock) {
  util::require(!blocks.empty(), "measure_stage requires at least one block");
  util::require(repeats >= 1, "measure_stage requires repeats >= 1");
  double bytes_sum = 0.0;
  for (const auto& b : blocks) {
    util::require(!b.empty(), "measure_stage requires non-empty blocks");
    bytes_sum += static_cast<double>(b.size());
  }

  // Warm-up pass (caches, allocators, branch predictors) — untimed.
  for (const auto& b : blocks) (void)fn(b);

  const auto now = [&clock] {
    if (clock) return clock();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  double r_min = std::numeric_limits<double>::infinity();
  double r_max = 0.0;
  double secs_sum = 0.0;
  double v_min = std::numeric_limits<double>::infinity();
  double v_max = 0.0;
  double v_sum = 0.0;
  std::size_t n = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& b : blocks) {
      const double start = now();
      const std::size_t out_bytes = fn(b);
      double secs = now() - start;
      // Guard against clock granularity on very fast invocations.
      secs = std::max(secs, 1e-9);
      const double rate = static_cast<double>(b.size()) / secs;
      r_min = std::min(r_min, rate);
      r_max = std::max(r_max, rate);
      secs_sum += secs;
      const double ratio =
          static_cast<double>(out_bytes) / static_cast<double>(b.size());
      v_min = std::min(v_min, ratio);
      v_max = std::max(v_max, ratio);
      v_sum += ratio;
      ++n;
    }
  }

  StageMeasurement m;
  m.name = std::move(name);
  m.block = util::DataSize::bytes(bytes_sum /
                                  static_cast<double>(blocks.size()));
  const double r_avg = std::clamp(
      bytes_sum * static_cast<double>(repeats) / secs_sum, r_min, r_max);
  m.rate_min = util::DataRate::bytes_per_sec(r_min);
  m.rate_avg = util::DataRate::bytes_per_sec(r_avg);
  m.rate_max = util::DataRate::bytes_per_sec(r_max);
  m.time_min = m.block / m.rate_max;
  m.time_avg = m.block / m.rate_avg;
  m.time_max = m.block / m.rate_min;
  m.volume_ratio_min = v_min;
  m.volume_ratio_max = v_max;
  m.volume_ratio_avg =
      std::clamp(v_sum / static_cast<double>(n), v_min, v_max);
  m.invocations = n;
  return m;
}

}  // namespace streamcalc::kernels
