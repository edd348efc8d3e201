// Span tracer contract: RAII spans record on scope exit with per-thread
// nesting depth, the bounded ring keeps the newest records, and the
// chrome://tracing export carries every field a viewer needs. The
// instrumented subsystems (min-plus operators, the replication runner)
// record one span per unit of work.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "minplus/curve.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "streamsim/replication.hpp"

namespace streamcalc::obs {
namespace {

/// Completed spans in the global tracer named `category`/`name`.
std::size_t span_count(const char* category, const char* name) {
  std::size_t n = 0;
  for (const SpanRecord& s : Tracer::global().snapshot()) {
    if (std::strcmp(s.category, category) == 0 &&
        std::strcmp(s.name, name) == 0) {
      ++n;
    }
  }
  return n;
}

/// Fresh tracer state per test; the global tracer is process-wide.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Tracer::global().stop();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().stop();
    Tracer::global().clear();
    set_enabled(true);
  }
};

TEST_F(TraceTest, SpanIsDormantWithoutTracerOrSink) {
  const Span span("test", "dormant");
  EXPECT_FALSE(span.active());
  EXPECT_TRUE(Tracer::global().snapshot().empty());
}

TEST_F(TraceTest, SpanRecordsOnScopeExit) {
  Tracer::global().start();
  {
    const Span span("test", "unit");
    EXPECT_TRUE(span.active());
    EXPECT_TRUE(Tracer::global().snapshot().empty());  // not yet completed
  }
  const auto spans = Tracer::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].category, "test");
  EXPECT_STREQ(spans[0].name, "unit");
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
  EXPECT_EQ(spans[0].depth, 0u);
}

TEST_F(TraceTest, NestedSpansCarryDepth) {
  Tracer::global().start();
  {
    const Span outer("test", "outer");
    {
      const Span inner("test", "inner");
      { const Span innermost("test", "innermost"); }
    }
  }
  const auto spans = Tracer::global().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: innermost first.
  EXPECT_STREQ(spans[0].name, "innermost");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].depth, 0u);
}

TEST_F(TraceTest, DepthIsPerThread) {
  Tracer::global().start();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      const Span outer("test", "thread-outer");
      const Span inner("test", "thread-inner");
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = Tracer::global().snapshot();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  // Every thread saw its own depth sequence: inner = 1, outer = 0,
  // regardless of interleaving with other threads.
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "thread-outer") {
      EXPECT_EQ(s.depth, 0u) << "outer span on thread " << s.thread;
    } else {
      EXPECT_EQ(s.depth, 1u) << "inner span on thread " << s.thread;
    }
  }
}

TEST_F(TraceTest, RingOverflowKeepsNewestRecords) {
  Tracer& tracer = Tracer::global();
  tracer.start(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SpanRecord r;
    r.category = "test";
    r.name = "overflow";
    r.start_ns = i;
    r.end_ns = i + 1;
    tracer.record(r);
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Oldest-first snapshot of the newest four records: 6, 7, 8, 9.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].start_ns, 6 + i);
  }
}

TEST_F(TraceTest, ClearDropsRecordsAndKeepsTracing) {
  Tracer& tracer = Tracer::global();
  tracer.start(4);
  { const Span span("test", "pre-clear"); }
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.active());
  { const Span span("test", "post-clear"); }
  EXPECT_EQ(tracer.snapshot().size(), 1u);
}

TEST_F(TraceTest, StoppedTracerRecordsNothingFurther) {
  Tracer::global().start();
  { const Span span("test", "before-stop"); }
  Tracer::global().stop();
  {
    const Span span("test", "after-stop");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(span_count("test", "before-stop"), 1u);
  EXPECT_EQ(span_count("test", "after-stop"), 0u);
}

TEST_F(TraceTest, StartIsIgnoredWhileDisabled) {
  set_enabled(false);
  Tracer::global().start();
  const Span span("test", "disabled");
  EXPECT_FALSE(span.active());
}

TEST_F(TraceTest, ChromeTraceJsonCarriesEveryField) {
  Tracer::global().start();
  { const Span span("minplus", "convolve"); }
  const std::string json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"convolve\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"minplus\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST_F(TraceTest, ConvolveRecordsOneSpan) {
  Tracer::global().start();
  (void)minplus::convolve(minplus::Curve::affine(10.0, 5.0),
                          minplus::Curve::rate_latency(8.0, 2.0));
  EXPECT_EQ(span_count("minplus", "convolve"), 1u);
  EXPECT_EQ(span_count("minplus", "deconvolve"), 0u);
}

TEST_F(TraceTest, DeconvolveRecordsOneSpan) {
  Tracer::global().start();
  (void)minplus::deconvolve(minplus::Curve::affine(4.0, 3.0),
                            minplus::Curve::rate_latency(10.0, 1.0));
  EXPECT_EQ(span_count("minplus", "deconvolve"), 1u);
}

TEST_F(TraceTest, ReplicationRunnerRecordsOneSpanPerReplication) {
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
  Tracer::global().start();
  const auto summary = streamsim::ReplicationRunner(rc).run({node}, source,
                                                           base);
  EXPECT_EQ(summary.replications, 3);
  EXPECT_EQ(span_count("sim", "replication"), 3u);
}

}  // namespace
}  // namespace streamcalc::obs
