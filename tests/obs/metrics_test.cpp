// Metrics registry contract: counters/gauges are cheap atomics with
// stable references, histograms bucket by powers of two, and the JSON
// export is deterministic. The instrumented subsystems (min-plus
// operators, the replication runner) count their work in the global
// registry, read here as counter deltas.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "minplus/curve.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "streamsim/replication.hpp"

namespace streamcalc::obs {
namespace {

/// Current value of the named counter in the global registry.
std::uint64_t counter(const char* name) {
  return Registry::global().counter(name).value();
}

TEST(CounterTest, Adds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, KeepsLastWrite) {
  Gauge g;
  g.set(2.5);
  g.set(7.0);
  EXPECT_EQ(g.value(), 7.0);
}

TEST(HistogramTest, BucketIndexIsLogScale) {
  // Bucket 0 is [0, 1]; bucket i is (2^(i-1), 2^i]; past the last finite
  // bound everything lands in the overflow bucket.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.5), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0001), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(1000.0), 10u);  // 2^9 < 1000 <= 2^10
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kBuckets);
  // Negatives and NaN are clamped into bucket 0 rather than lost.
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
}

TEST(HistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_bound(0), 1.0);
  EXPECT_EQ(Histogram::bucket_bound(1), 2.0);
  EXPECT_EQ(Histogram::bucket_bound(10), 1024.0);
}

TEST(HistogramTest, ObserveTracksCountSumMinMax) {
  Histogram h;
  h.observe(3.0);
  h.observe(1.0);
  h.observe(100.0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 104.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_EQ(s.buckets[0], 1u);  // 1.0
  EXPECT_EQ(s.buckets[2], 1u);  // 3.0 in (2, 4]
  EXPECT_EQ(s.buckets[7], 1u);  // 100.0 in (64, 128]
}

TEST(RegistryTest, HandsOutStableReferences) {
  Registry reg;
  Counter& a = reg.counter("stable");
  Counter& b = reg.counter("stable");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("stable");  // separate namespace from counters
  Gauge& g2 = reg.gauge("stable");
  EXPECT_EQ(&g1, &g2);
}

TEST(RegistryTest, JsonIsDeterministicAndSorted) {
  Registry reg;
  reg.counter("zulu").add(1);
  reg.counter("alpha").add(2);
  reg.gauge("depth").set(3.0);
  reg.histogram("sizes").observe(5.0);
  const std::string json = reg.json();
  EXPECT_EQ(json, reg.json());  // stable across calls
  // Sorted counters: "alpha" renders before "zulu".
  EXPECT_LT(json.find("\"alpha\": 2"), json.find("\"zulu\": 1"));
  EXPECT_NE(json.find("\"depth\": 3"), std::string::npos);
  // Histogram renders only its occupied buckets.
  EXPECT_NE(json.find("\"le\": 8, \"count\": 1"), std::string::npos);
}

TEST(RegistryTest, ScalarSnapshotsMatchInstruments) {
  Registry reg;
  reg.counter("b.count").add(5);
  reg.counter("a.count").add(3);
  reg.gauge("depth").set(2.0);
  const auto counters = reg.counter_values();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "a.count");  // sorted
  EXPECT_EQ(counters[0].value, 3.0);
  EXPECT_EQ(counters[1].name, "b.count");
  EXPECT_EQ(counters[1].value, 5.0);
  const auto gauges = reg.gauge_values();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].name, "depth");
  EXPECT_EQ(gauges[0].value, 2.0);
}

TEST(RegistryTest, CurveOperationsCountEachCall) {
  set_enabled(true);
  const std::uint64_t conv0 = counter("minplus.convolve.calls");
  const std::uint64_t deconv0 = counter("minplus.deconvolve.calls");
  (void)minplus::convolve(minplus::Curve::affine(10.0, 5.0),
                          minplus::Curve::rate_latency(8.0, 2.0));
  EXPECT_EQ(counter("minplus.convolve.calls") - conv0, 1u);
  EXPECT_EQ(counter("minplus.deconvolve.calls") - deconv0, 0u);
  (void)minplus::deconvolve(minplus::Curve::affine(4.0, 3.0),
                            minplus::Curve::rate_latency(10.0, 1.0));
  EXPECT_EQ(counter("minplus.convolve.calls") - conv0, 1u);
  EXPECT_EQ(counter("minplus.deconvolve.calls") - deconv0, 1u);
}

TEST(RegistryTest, ReplicationRunnerCountsEachReplication) {
  set_enabled(true);
  netcalc::SourceSpec source;
  source.rate = util::DataRate::mib_per_sec(60);
  source.burst = util::DataSize::kib(64);
  const netcalc::NodeSpec node = netcalc::NodeSpec::from_rates(
      "stage", netcalc::NodeKind::kCompute, util::DataSize::kib(64),
      util::DataRate::mib_per_sec(90), util::DataRate::mib_per_sec(100),
      util::DataRate::mib_per_sec(110));
  streamsim::SimConfig base;
  base.horizon = util::Duration::seconds(0.05);
  streamsim::ReplicationConfig rc;
  rc.replications = 3;
  rc.base_seed = 7;
  rc.threads = 1;  // deterministic inline execution
  const std::uint64_t reps0 = counter("sim.replications");
  const std::uint64_t runs0 = counter("streamsim.recurrence.runs");
  (void)streamsim::ReplicationRunner(rc).run({node}, source, base);
  EXPECT_EQ(counter("sim.replications") - reps0, 3u);
  // Each replication runs one simulation on the max-plus recurrence.
  EXPECT_EQ(counter("streamsim.recurrence.runs") - runs0, 3u);
}

}  // namespace
}  // namespace streamcalc::obs
