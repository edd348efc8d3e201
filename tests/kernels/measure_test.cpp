#include "kernels/measure.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace streamcalc::kernels {
namespace {

// Sink so deterministic busy loops are not optimized away.
volatile std::uint64_t benchmark_sink;

std::vector<std::vector<std::uint8_t>> make_blocks(std::size_t count,
                                                   std::size_t bytes) {
  return std::vector<std::vector<std::uint8_t>>(
      count, std::vector<std::uint8_t>(bytes, 0x42));
}

TEST(Measure, OrderingInvariants) {
  const auto blocks = make_blocks(4, 4096);
  const auto m = measure_stage(
      "busy",
      [](std::span<const std::uint8_t> b) {
        // Deterministic busy work proportional to the block.
        std::uint64_t acc = 0;
        for (std::uint8_t v : b) acc += v * 31u;
        benchmark_sink = acc;
        return b.size();
      },
      blocks, 3);
  EXPECT_EQ(m.invocations, 12u);
  EXPECT_LE(m.time_min, m.time_avg);
  EXPECT_LE(m.time_avg, m.time_max);
  EXPECT_LE(m.rate_min, m.rate_avg);
  EXPECT_LE(m.rate_avg, m.rate_max);
  EXPECT_GT(m.rate_min.in_bytes_per_sec(), 0.0);
}

TEST(Measure, VolumeRatioObserved) {
  const auto blocks = make_blocks(2, 1024);
  int call = 0;
  const auto m = measure_stage(
      "halver",
      [&call](std::span<const std::uint8_t> b) {
        // Alternate between emitting half and all of the block.
        return (call++ % 2 == 0) ? b.size() / 2 : b.size();
      },
      blocks, 2);
  EXPECT_DOUBLE_EQ(m.volume_ratio_min, 0.5);
  EXPECT_DOUBLE_EQ(m.volume_ratio_max, 1.0);
  EXPECT_NEAR(m.volume_ratio_avg, 0.75, 1e-9);
}

TEST(Measure, ToNodeProducesValidSpec) {
  // A scripted clock the stage advances by 200 us per block: a real sleep
  // overshoots by whole milliseconds on a loaded machine.
  double clock_secs = 0.0;
  const auto blocks = make_blocks(2, 2048);
  const auto m = measure_stage(
      "sleeper",
      [&clock_secs](std::span<const std::uint8_t> b) {
        clock_secs += 200e-6;
        return b.size();
      },
      blocks, 2, [&clock_secs] { return clock_secs; });
  const netcalc::NodeSpec n =
      m.to_node(netcalc::NodeKind::kCompute, util::DataSize::bytes(2048));
  EXPECT_EQ(n.name, "sleeper");
  EXPECT_DOUBLE_EQ(n.block_in.in_bytes(), 2048.0);
  // ~10 MiB/s given the 200 us sleep per 2 KiB block.
  EXPECT_LT(n.rate_max().in_mib_per_sec(), 30.0);
  EXPECT_GT(n.rate_min().in_mib_per_sec(), 1.0);
}

TEST(Measure, RejectsBadInputs) {
  const auto one = make_blocks(1, 16);
  const StageFn fn = [](std::span<const std::uint8_t> b) {
    return b.size();
  };
  EXPECT_THROW(measure_stage("x", fn, {}, 1), util::PreconditionError);
  EXPECT_THROW(measure_stage("x", fn, one, 0), util::PreconditionError);
  const auto empty_blocks = make_blocks(1, 0);
  EXPECT_THROW(measure_stage("x", fn, empty_blocks, 1),
               util::PreconditionError);
}

TEST(Measure, VariableBlockSizesAllowed) {
  std::vector<std::vector<std::uint8_t>> ragged{
      std::vector<std::uint8_t>(1000, 1),
      std::vector<std::uint8_t>(3000, 2)};
  const auto m = measure_stage(
      "ragged",
      [](std::span<const std::uint8_t> b) { return b.size(); }, ragged, 2);
  EXPECT_DOUBLE_EQ(m.block.in_bytes(), 2000.0);  // mean block size
  EXPECT_LE(m.rate_min, m.rate_max);
}

}  // namespace
}  // namespace streamcalc::kernels
