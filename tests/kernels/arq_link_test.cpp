#include "kernels/arq_link.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/error.hpp"

namespace streamcalc::kernels {
namespace {

using util::DataRate;
using util::DataSize;
using util::Duration;
using namespace util::literals;

ArqLinkParams base_params() {
  ArqLinkParams p;
  p.bandwidth = DataRate::gib_per_sec(1);
  p.propagation = 50_us;
  p.packet = 16_KiB;
  p.window = 16;
  p.measure_time = 200_ms;
  return p;
}

TEST(ArqLink, LosslessWideWindowSaturatesTheLine) {
  ArqLinkParams p = base_params();
  p.window = 64;  // window >> bandwidth-delay product
  const auto m = measure_arq_link(p);
  EXPECT_NEAR(m.throughput_avg.in_gib_per_sec(), 1.0, 0.05);
  EXPECT_EQ(m.retransmissions, 0u);
}

TEST(ArqLink, NarrowWindowIsRttBound) {
  // throughput ~= window * packet / RTT when below the line rate.
  ArqLinkParams p = base_params();
  p.window = 2;
  const auto m = measure_arq_link(p);
  const double rtt = 2 * 50e-6 + (16.0 * 1024) / (1024.0 * 1024 * 1024);
  const double expected = 2 * 16.0 * 1024 / rtt;
  EXPECT_NEAR(m.throughput_avg.in_bytes_per_sec(), expected,
              0.15 * expected);
  EXPECT_LT(m.throughput_avg.in_gib_per_sec(), 0.7);
}

TEST(ArqLink, LatencyFloorIsSerializationPlusPropagation) {
  const auto m = measure_arq_link(base_params());
  const double floor =
      (16.0 * 1024) / (1024.0 * 1024 * 1024) + 50e-6;
  EXPECT_GE(m.latency_min.in_seconds(), floor - 1e-9);
  EXPECT_LE(m.latency_min.in_seconds(), 3 * floor);
}

TEST(ArqLink, LossCostsThroughputAndTail) {
  ArqLinkParams clean = base_params();
  ArqLinkParams lossy = base_params();
  lossy.loss_rate = 0.05;
  lossy.seed = 9;
  const auto mc = measure_arq_link(clean);
  const auto ml = measure_arq_link(lossy);
  EXPECT_GT(ml.retransmissions, 0u);
  EXPECT_LT(ml.throughput_avg.in_bytes_per_sec(),
            mc.throughput_avg.in_bytes_per_sec());
  EXPECT_GT(ml.latency_max.in_seconds(), mc.latency_max.in_seconds());
}

TEST(ArqLink, ThroughputSpreadOrdered) {
  ArqLinkParams p = base_params();
  p.loss_rate = 0.02;
  const auto m = measure_arq_link(p);
  EXPECT_LE(m.throughput_min, m.throughput_avg);
  EXPECT_LE(m.throughput_avg, m.throughput_max);
  EXPECT_LE(m.latency_min, m.latency_avg);
  EXPECT_LE(m.latency_avg, m.latency_max);
}

TEST(ArqLink, ToNodeProducesValidCutThroughSpec) {
  const auto m = measure_arq_link(base_params());
  const auto n = m.to_node("net", netcalc::NodeKind::kNetworkLink);
  EXPECT_FALSE(n.aggregates);
  EXPECT_EQ(n.block_in, 16_KiB);
  EXPECT_NEAR(n.rate_avg().in_bytes_per_sec(),
              m.throughput_avg.in_bytes_per_sec(), 1.0);
  EXPECT_EQ(n.latency_override, m.latency_min);
}

TEST(ArqLink, Deterministic) {
  const auto a = measure_arq_link(base_params());
  const auto b = measure_arq_link(base_params());
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.throughput_avg.in_bytes_per_sec(),
            b.throughput_avg.in_bytes_per_sec());
}

/// Every ArqLinkMeasurement field, doubles as their bit patterns, in
/// declaration order: throughput min/avg/max, latency min/avg/max,
/// packet, packets delivered, retransmissions.
std::string measurement_bits(const ArqLinkMeasurement& m) {
  std::string out;
  for (const double v : {m.throughput_min.in_bytes_per_sec(),
                         m.throughput_avg.in_bytes_per_sec(),
                         m.throughput_max.in_bytes_per_sec(),
                         m.latency_min.in_seconds(), m.latency_avg.in_seconds(),
                         m.latency_max.in_seconds(), m.packet.in_bytes()}) {
    char word[24];
    std::snprintf(word, sizeof word, "%016" PRIx64 " ",
                  std::bit_cast<std::uint64_t>(v));
    out += word;
  }
  out += std::to_string(m.packets_delivered) + " " +
         std::to_string(m.retransmissions);
  return out;
}

TEST(ArqLink, MeasurementsMatchRecordedBits) {
  ArqLinkParams lossless = base_params();
  ArqLinkParams lossy = base_params();
  lossy.loss_rate = 0.05;
  lossy.seed = 9;
  ArqLinkParams narrow = base_params();
  narrow.window = 2;
  narrow.loss_rate = 0.01;
  narrow.seed = 4;
  EXPECT_EQ(measurement_bits(measure_arq_link(lossless)),
            "41cffb8000000000 41cffd6000000000 41d0040000000000 "
            "3f111b71758e2196 3f2971afcc40c9bd 3f3346dc5d638866 "
            "40d0000000000000 13103 0");
  EXPECT_EQ(measurement_bits(measure_arq_link(lossy)),
            "41cde20000000000 41ce604000000000 41cee88000000000 "
            "3f151b71758e2196 3f2b229ab4afe0fe 3f50ae48e8a71e00 "
            "40d0000000000000 12442 661");
  EXPECT_EQ(measurement_bits(measure_arq_link(narrow)),
            "41af400000000000 41b08ec000000000 41b0fe0000000000 "
            "3f111b71758e2000 3f11d16c0aefb3f8 3f37a92a30553280 "
            "40d0000000000000 3391 31");
}

TEST(ArqLink, RejectsBadParams) {
  ArqLinkParams p = base_params();
  p.window = 0;
  EXPECT_THROW(measure_arq_link(p), util::PreconditionError);
  p = base_params();
  p.loss_rate = 1.0;
  EXPECT_THROW(measure_arq_link(p), util::PreconditionError);
  p = base_params();
  p.measure_time = Duration::seconds(0);
  EXPECT_THROW(measure_arq_link(p), util::PreconditionError);
}

}  // namespace
}  // namespace streamcalc::kernels
