#include "streamsim/replication.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace streamcalc::streamsim {
namespace {

using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;

NodeSpec stage(const char* name, double mibps_min, double mibps_avg,
               double mibps_max) {
  return NodeSpec::from_rates(name, NodeKind::kCompute, DataSize::kib(64),
                              DataRate::mib_per_sec(mibps_min),
                              DataRate::mib_per_sec(mibps_avg),
                              DataRate::mib_per_sec(mibps_max));
}

SourceSpec source(double mibps) {
  SourceSpec s;
  s.rate = DataRate::mib_per_sec(mibps);
  s.burst = DataSize::kib(64);
  return s;
}

SimConfig base_config(double seconds) {
  SimConfig c;
  c.horizon = Duration::seconds(seconds);
  return c;
}

ReplicationSummary run_with_threads(unsigned threads) {
  ReplicationConfig rc;
  rc.replications = 6;
  rc.base_seed = 42;
  rc.threads = threads;
  const ReplicationRunner runner(rc);
  return runner.run({stage("a", 150, 160, 170), stage("b", 90, 100, 110)},
                    source(60), base_config(0.5));
}

TEST(Summarize, KnownSample) {
  const SummaryStat s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  // Student t, df = 3: 3.182; half-width = t * s / sqrt(n).
  EXPECT_NEAR(s.ci95_half, 3.182 * s.stddev / 2.0, 1e-2);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Summarize, SingleSampleHasZeroSpread) {
  const SummaryStat s = summarize({7.5});
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half, 0.0);
}

TEST(ReplicationRunner, SeedsDependOnlyOnBaseSeedAndCount) {
  const ReplicationSummary a = run_with_threads(1);
  const ReplicationSummary b = run_with_threads(1);
  ASSERT_EQ(a.seeds.size(), 6u);
  EXPECT_EQ(a.seeds, b.seeds);
  // Distinct per replication.
  for (std::size_t i = 0; i < a.seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < a.seeds.size(); ++j) {
      EXPECT_NE(a.seeds[i], a.seeds[j]);
    }
  }
}

TEST(ReplicationRunner, SummaryIsByteIdenticalAcrossThreadCounts) {
  const ReplicationSummary serial = run_with_threads(1);
  const ReplicationSummary pooled = run_with_threads(8);
  const ReplicationSummary global_pool = run_with_threads(0);

  const auto expect_same = [](const ReplicationSummary& x,
                              const ReplicationSummary& y) {
    ASSERT_EQ(x.replications, y.replications);
    EXPECT_EQ(x.seeds, y.seeds);
    const auto same_stat = [](const SummaryStat& a, const SummaryStat& b) {
      EXPECT_EQ(a.mean, b.mean);
      EXPECT_EQ(a.stddev, b.stddev);
      EXPECT_EQ(a.ci95_half, b.ci95_half);
      EXPECT_EQ(a.min, b.min);
      EXPECT_EQ(a.max, b.max);
    };
    same_stat(x.throughput_bytes_per_sec, y.throughput_bytes_per_sec);
    same_stat(x.min_delay_seconds, y.min_delay_seconds);
    same_stat(x.mean_delay_seconds, y.mean_delay_seconds);
    same_stat(x.max_delay_seconds, y.max_delay_seconds);
    same_stat(x.max_backlog_bytes, y.max_backlog_bytes);
    same_stat(x.packets_delivered, y.packets_delivered);
    EXPECT_EQ(x.worst_delay.in_seconds(), y.worst_delay.in_seconds());
    EXPECT_EQ(x.worst_backlog.in_bytes(), y.worst_backlog.in_bytes());
    ASSERT_EQ(x.results.size(), y.results.size());
    for (std::size_t i = 0; i < x.results.size(); ++i) {
      EXPECT_EQ(x.results[i].max_delay.in_seconds(),
                y.results[i].max_delay.in_seconds());
      EXPECT_EQ(x.results[i].max_backlog.in_bytes(),
                y.results[i].max_backlog.in_bytes());
      EXPECT_EQ(x.results[i].packets_delivered,
                y.results[i].packets_delivered);
    }
  };
  expect_same(serial, pooled);
  expect_same(serial, global_pool);
}

TEST(ReplicationRunner, ExtremesBracketTheMeans) {
  const ReplicationSummary s = run_with_threads(1);
  EXPECT_GE(s.worst_delay.in_seconds(), s.max_delay_seconds.mean);
  EXPECT_EQ(s.worst_delay.in_seconds(), s.max_delay_seconds.max);
  EXPECT_EQ(s.worst_backlog.in_bytes(), s.max_backlog_bytes.max);
  EXPECT_GE(s.max_delay_seconds.min, s.min_delay_seconds.min);
}

}  // namespace
}  // namespace streamcalc::streamsim
