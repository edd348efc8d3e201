// Profiling-hook contract: an installed Sink observes the spans and
// metric updates fired by the instrumented subsystems — min-plus
// operators, the thread pool, and the replication runner — so tests can
// assert on instrumentation directly.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "minplus/curve.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "streamsim/replication.hpp"
#include "util/thread_pool.hpp"

namespace streamcalc {
namespace {

using minplus::Curve;

/// Installs a CollectingSink for the test body and restores whatever was
/// installed before (normally nothing).
class SinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !SC_OBS_ENABLED
    GTEST_SKIP() << "instrumentation compiled out (STREAMCALC_OBS=OFF)";
#endif
    obs::set_enabled(true);
    previous_ = obs::set_sink(&sink_);
  }
  void TearDown() override { obs::set_sink(previous_); }

  obs::CollectingSink sink_;
  obs::Sink* previous_ = nullptr;
};

TEST_F(SinkTest, ConvolveNotifiesSpanAndCallCounter) {
  const Curve a = Curve::affine(10.0, 5.0);
  const Curve b = Curve::rate_latency(8.0, 2.0);
  (void)minplus::convolve(a, b);
  EXPECT_EQ(sink_.span_count("minplus/convolve"), 1u);
  EXPECT_EQ(sink_.metric_total("minplus.convolve.calls"), 1.0);
}

TEST_F(SinkTest, DeconvolveAndClosureNotifyTheirCounters) {
  const Curve arrival = Curve::affine(4.0, 3.0);
  const Curve service = Curve::rate_latency(10.0, 1.0);
  (void)minplus::deconvolve(arrival, service);
  EXPECT_EQ(sink_.span_count("minplus/deconvolve"), 1u);
  EXPECT_EQ(sink_.metric_total("minplus.deconvolve.calls"), 1.0);
}

TEST_F(SinkTest, ParallelForNotifiesCallAndChunkCounters) {
  util::ThreadPool pool(2);
  std::vector<int> data(64, 0);
  pool.parallel_for(0, data.size(), 16,
                    [&data](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) data[i] = 1;
                    });
  EXPECT_EQ(sink_.span_count("pool/parallel_for"), 1u);
  EXPECT_EQ(sink_.metric_total("pool.parallel_for.calls"), 1.0);
  // 64 elements at grain 16 = 4 chunks, each traced as a pool/chunk span.
  EXPECT_EQ(sink_.metric_total("pool.chunks"), 4.0);
  EXPECT_EQ(sink_.span_count("pool/chunk"), 4u);
  for (const int v : data) EXPECT_EQ(v, 1);
}

TEST_F(SinkTest, ReplicationRunnerNotifiesOneSpanPerReplication) {
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
  const streamsim::ReplicationRunner runner(rc);
  const auto summary = runner.run({node}, source, base);
  EXPECT_EQ(summary.replications, 3);
  EXPECT_EQ(sink_.span_count("sim/replication"), 3u);
  EXPECT_EQ(sink_.metric_total("sim.replications"), 3.0);
  // Each replication runs one simulation; with unlimited queues that is
  // the max-plus recurrence rather than the DES event loop.
  EXPECT_EQ(sink_.metric_total("streamsim.recurrence.runs"), 3.0);
  EXPECT_EQ(sink_.metric_total("des.batches"), 0.0);
}

TEST_F(SinkTest, RemovedSinkSeesNothingFurther)  {
  obs::set_sink(nullptr);
  (void)minplus::convolve(Curve::affine(10.0, 5.0),
                          Curve::rate_latency(8.0, 2.0));
  EXPECT_EQ(sink_.total_spans(), 0u);
  EXPECT_EQ(sink_.metric_total("minplus.convolve.calls"), 0.0);
  obs::set_sink(&sink_);  // TearDown expects to restore from here
}

}  // namespace
}  // namespace streamcalc
