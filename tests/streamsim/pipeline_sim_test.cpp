#include "streamsim/pipeline_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "streamsim/detail/core.hpp"
#include "streamsim/detail/engines.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::streamsim {
namespace {

using netcalc::DagSpec;
using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::SourceSpec;
using netcalc::VolumeRatio;
using util::DataRate;
using util::DataSize;
using util::Duration;
using namespace util::literals;

NodeSpec stage(const char* name, double mibps_min, double mibps_avg,
               double mibps_max, DataSize block = DataSize::kib(64)) {
  return NodeSpec::from_rates(name, NodeKind::kCompute, block,
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

SimConfig config(double seconds, std::uint64_t seed = 1) {
  SimConfig c;
  c.horizon = Duration::seconds(seconds);
  c.seed = seed;
  return c;
}

TEST(PipelineSim, ThroughputMatchesSourceWhenUnderloaded) {
  // A fast stage passes the offered 50 MiB/s through.
  const auto r = simulate({stage("fast", 200, 220, 240)}, source(50),
                          config(2.0));
  EXPECT_NEAR(r.throughput.in_mib_per_sec(), 50.0, 2.5);
}

TEST(PipelineSim, ThroughputCapsAtBottleneckWhenOverloaded) {
  // Offered 200 MiB/s through a ~60 MiB/s stage: delivery near 60.
  auto c = config(2.0);
  c.queue_capacity = 4;
  const auto r = simulate({stage("slow", 55, 60, 65)}, source(200), c);
  EXPECT_NEAR(r.throughput.in_mib_per_sec(), 60.0, 4.0);
}

TEST(PipelineSim, DeterministicModeIsReproducibleAcrossSeeds) {
  auto c1 = config(1.0, 1);
  auto c2 = config(1.0, 999);
  c1.deterministic = c2.deterministic = true;
  const auto r1 = simulate({stage("s", 80, 100, 120)}, source(50), c1);
  const auto r2 = simulate({stage("s", 80, 100, 120)}, source(50), c2);
  EXPECT_EQ(r1.throughput.in_bytes_per_sec(), r2.throughput.in_bytes_per_sec());
  EXPECT_EQ(r1.max_delay.in_seconds(), r2.max_delay.in_seconds());
}

TEST(PipelineSim, SameSeedSameResult) {
  const auto r1 = simulate({stage("s", 80, 100, 120)}, source(50),
                           config(1.0, 42));
  const auto r2 = simulate({stage("s", 80, 100, 120)}, source(50),
                           config(1.0, 42));
  EXPECT_EQ(r1.throughput.in_bytes_per_sec(),
            r2.throughput.in_bytes_per_sec());
  EXPECT_EQ(r1.packets_delivered, r2.packets_delivered);
  EXPECT_EQ(r1.max_backlog.in_bytes(), r2.max_backlog.in_bytes());
}

TEST(PipelineSim, DelayAtLeastSumOfMinServiceTimes) {
  const std::vector<NodeSpec> nodes{stage("a", 80, 100, 120),
                                    stage("b", 80, 100, 120)};
  const auto r = simulate(nodes, source(50), config(2.0));
  const double floor_delay =
      nodes[0].time_min.in_seconds() + nodes[1].time_min.in_seconds();
  EXPECT_GE(r.min_delay.in_seconds(), floor_delay - 1e-12);
}

TEST(PipelineSim, VolumeFilterPreservesNormalizedThroughput) {
  // A 4:1 filter does not change input-referred throughput.
  std::vector<NodeSpec> nodes{stage("filter", 100, 110, 120),
                              stage("after", 100, 110, 120)};
  nodes[0].volume = VolumeRatio::exact(0.25);
  const auto r = simulate(nodes, source(50), config(2.0));
  EXPECT_NEAR(r.throughput.in_mib_per_sec(), 50.0, 3.0);
}

TEST(PipelineSim, WorstCaseVolumeModeUsesMaxRatio) {
  // With a compression stage at worst case (ratio 1.0) a downstream
  // 60 MiB/s stage is the bottleneck; at best case (5.3x) it is not.
  std::vector<NodeSpec> nodes{stage("compress", 500, 550, 600),
                              stage("slow", 55, 60, 65)};
  nodes[0].volume = VolumeRatio::from_compression(1.0, 2.2, 5.3);
  auto worst = config(2.0);
  worst.volume_mode = VolumeMode::kWorstCase;
  worst.queue_capacity = 4;
  auto best = worst;
  best.volume_mode = VolumeMode::kBestCase;
  const auto rw = simulate(nodes, source(200), worst);
  const auto rb = simulate(nodes, source(200), best);
  EXPECT_NEAR(rw.throughput.in_mib_per_sec(), 60.0, 5.0);
  EXPECT_GT(rb.throughput.in_mib_per_sec(),
            2.0 * rw.throughput.in_mib_per_sec());
}

TEST(PipelineSim, RestoringStageEmitsOriginalVolume) {
  // compress (2:1 exactly) then decompress-with-restore: the raw bytes at
  // the sink equal the input bytes, so a downstream rate measured on raw
  // data matches normalized throughput.
  std::vector<NodeSpec> nodes{stage("compress", 400, 450, 500),
                              stage("decompress", 400, 450, 500)};
  nodes[0].volume = VolumeRatio::exact(0.5);
  nodes[1].volume = VolumeRatio{1.0, 2.0, 4.0};  // ignored by restore
  nodes[1].restores_volume = true;
  const auto r = simulate(nodes, source(50), config(2.0));
  EXPECT_NEAR(r.throughput.in_mib_per_sec(), 50.0, 3.0);
}

TEST(PipelineSim, BoundedQueuesApplyBackpressure) {
  // With deep queues an overloaded system accumulates a large backlog;
  // with shallow queues backpressure caps it.
  std::vector<NodeSpec> nodes{stage("fast", 300, 320, 340),
                              stage("slow", 50, 55, 60)};
  auto deep = config(2.0);
  deep.queue_capacity = SimConfig::kUnlimitedQueue;
  auto shallow = config(2.0);
  shallow.queue_capacity = 2;
  const auto rd = simulate(nodes, source(200), deep);
  const auto rs = simulate(nodes, source(200), shallow);
  EXPECT_GT(rd.max_backlog.in_bytes(), 4.0 * rs.max_backlog.in_bytes());
  // Throughput is bottleneck-bound either way.
  EXPECT_NEAR(rs.throughput.in_mib_per_sec(), 55.0, 5.0);
}

TEST(PipelineSim, AggregationCollectsFullBlocks) {
  // Second stage needs 256 KiB per job but receives 64 KiB packets: it
  // executes exactly one job per four packets.
  std::vector<NodeSpec> nodes{stage("a", 200, 220, 240),
                              stage("agg", 200, 220, 240, 256_KiB)};
  const auto r = simulate(nodes, source(50), config(2.0));
  ASSERT_EQ(r.node_stats.size(), 2u);
  EXPECT_GT(r.node_stats[0].jobs, 3 * r.node_stats[1].jobs);
}

TEST(PipelineSim, UtilizationReflectsLoad) {
  const auto busy = simulate({stage("s", 55, 60, 65)}, source(200),
                             config(2.0));
  const auto idle = simulate({stage("s", 550, 600, 650)}, source(50),
                             config(2.0));
  ASSERT_EQ(busy.node_stats.size(), 1u);
  EXPECT_GT(busy.node_stats[0].utilization, 0.9);
  EXPECT_LT(idle.node_stats[0].utilization, 0.2);
}

TEST(PipelineSim, OutputTraceIsMonotoneStairstep) {
  const auto r = simulate({stage("s", 80, 100, 120)}, source(50),
                          config(1.0));
  ASSERT_GT(r.output_trace.size(), 2u);
  for (std::size_t i = 1; i < r.output_trace.size(); ++i) {
    EXPECT_GE(r.output_trace[i].first, r.output_trace[i - 1].first);
    EXPECT_GE(r.output_trace[i].second, r.output_trace[i - 1].second);
  }
}

TEST(PipelineSim, BacklogTraceNonNegative) {
  const auto r = simulate({stage("s", 80, 100, 120)}, source(50),
                          config(1.0));
  for (const auto& [t, v] : r.backlog_trace) {
    EXPECT_GE(v, -1e-9);
  }
}

TEST(PipelineSim, WarmupExcludesTransient) {
  // The min delay over the whole run includes the empty-pipeline start;
  // with a warmup it reflects steady state and is no smaller.
  auto cold = config(2.0);
  auto warm = config(2.0);
  warm.warmup = Duration::seconds(1.0);
  std::vector<NodeSpec> nodes{stage("fast", 300, 320, 340),
                              stage("slow", 50, 55, 60)};
  nodes[0].volume = VolumeRatio::exact(1.0);
  auto c2 = cold;
  c2.queue_capacity = 4;
  auto w2 = warm;
  w2.queue_capacity = 4;
  const auto rc = simulate(nodes, source(100), c2);
  const auto rw = simulate(nodes, source(100), w2);
  EXPECT_GE(rw.min_delay.in_seconds(), rc.min_delay.in_seconds());
}

TEST(PipelineSim, RejectsBadConfig) {
  EXPECT_THROW(simulate({}, source(50), config(1.0)),
               util::PreconditionError);
  SimConfig c;
  c.horizon = Duration::seconds(0);
  EXPECT_THROW(simulate({stage("s", 1, 2, 3)}, source(50), c),
               util::PreconditionError);
  SimConfig c2 = config(1.0);
  c2.warmup = Duration::seconds(2.0);  // beyond horizon
  EXPECT_THROW(simulate({stage("s", 1, 2, 3)}, source(50), c2),
               util::PreconditionError);
  // The warmup is checked before either engine runs, whichever is picked.
  const std::vector<NodeSpec> nodes{stage("s", 80, 100, 120)};
  const DagSpec dag = DagSpec::chain(nodes);
  for (const double warmup : {-0.1, 1.0, 2.0}) {
    SimConfig c3 = config(1.0);
    c3.warmup = Duration::seconds(warmup);
    EXPECT_THROW(detail::simulate_des(dag, source(50), c3),
                 util::PreconditionError)
        << warmup;
    EXPECT_THROW(detail::simulate_recurrence(dag, source(50), c3),
                 util::PreconditionError)
        << warmup;
    c3.queue_capacity = 4;
    EXPECT_THROW(simulate(nodes, source(50), c3), util::PreconditionError)
        << warmup;
  }
}

/// The deficit rule applied to one packet: the largest weight * total -
/// sent wins, the first on a tie, and nothing is due when no deficit is
/// positive.
std::size_t deficit_rule(const std::vector<detail::Destination>& dests,
                         std::vector<double>& sent, double& total) {
  total += 1.0;
  std::size_t best = 0;
  double best_deficit = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const double deficit = dests[i].weight * total - sent[i];
    if (deficit > best_deficit) {
      best_deficit = deficit;
      best = i;
    }
  }
  if (best_deficit <= 0.0) return detail::kDropped;
  sent[best] += 1.0;
  return dests[best].queue;
}

TEST(WeightedRouter, BatchesMatchTheDeficitRulePacketByPacket) {
  // One to five shares, normalized (some to decimal shares such as 0.6 and
  // 0.4) or scaled short of one with the remainder dropped, as network()
  // builds them. Chunks of 1 to 300 decisions and single route() calls
  // must both follow the rule packet by packet.
  util::Xoshiro256 rng(42);
  std::size_t drops = 0;
  for (int c = 0; c < 500; ++c) {
    const std::size_t n = 1 + rng() % 5;
    const std::uint64_t mode = rng() % 3;
    std::vector<double> w(n);
    double sum = 0.0;
    for (double& x : w) sum += (x = rng.uniform(0.05, 1.0));
    std::vector<detail::Destination> dests;
    double covered = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double f = w[i] / sum;
      if (mode == 1) f = std::max(0.1, std::round(f * 10.0) / 10.0);
      if (mode == 2) f *= 0.8;
      dests.push_back({i, f});
      covered += f;
    }
    if (covered < 1.0 - 1e-9) {
      dests.push_back({detail::kDropped, 1.0 - covered});
    }
    detail::WeightedRouter batched(dests);
    detail::WeightedRouter single(dests);
    std::vector<double> sent(dests.size(), 0.0);
    double total = 0.0;
    for (int chunk = 0; chunk < 8; ++chunk) {
      std::vector<std::size_t> out(1 + rng() % 300);
      batched.route(out);
      for (std::size_t k = 0; k < out.size(); ++k) {
        const std::size_t want = deficit_rule(dests, sent, total);
        ASSERT_EQ(out[k], want) << "case " << c << ", chunk " << chunk;
        ASSERT_EQ(single.route(), want) << "case " << c << ", chunk " << chunk;
        if (want == detail::kDropped) ++drops;
      }
    }
  }
  EXPECT_GT(drops, 1000u);
}

TEST(PipelineSim, RefusesARunPastTheSourcePacketBudget) {
  // 50 MiB/s in 64 KiB packets is 800 packets/s: 12,600 s is just over the
  // 1e7 packets one run may emit. Both engines refuse it before running.
  const std::vector<NodeSpec> nodes{stage("s", 80, 100, 120)};
  const SimConfig c = config(12600.0);
  const DagSpec dag = DagSpec::chain(nodes);
  EXPECT_THROW(detail::simulate_recurrence(dag, source(50), c),
               util::PreconditionError);
  EXPECT_THROW(detail::simulate_des(dag, source(50), c),
               util::PreconditionError);
  try {
    (void)simulate(nodes, source(50), c);
    ADD_FAILURE() << "ran past the packet budget";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("source packets"),
              std::string::npos)
        << e.what();
  }
}

TEST(PipelineSim, RefusesOnOffUsersPastTheCycleBudget) {
  // Three users alternating 1 ns silences and 1 ns on-periods expect
  // 3 x 100 s / 2 ns = 1.5e11 cycles, far past the 1e7 one run may make,
  // and release nothing: a 1 KiB window at 1 MiB/s outlasts every
  // on-period. Run, it would spin for about half an hour; it is refused
  // before the first cycle, with about 3e5 packets well inside their budget.
  const std::vector<NodeSpec> nodes{stage("s", 80, 100, 120)};
  SourceSpec src = source(1);
  src.packet = DataSize::kib(1);
  SimConfig c = config(100.0);
  c.onoff_users = 3;
  c.onoff_peak = DataRate::mib_per_sec(1);
  c.onoff_mean_on = Duration::nanos(1);
  c.onoff_mean_off = Duration::nanos(1);
  EXPECT_THROW(detail::simulate_recurrence(DagSpec::chain(nodes), src, c),
               util::PreconditionError);
  try {
    (void)simulate(nodes, src, c);
    ADD_FAILURE() << "ran past the on/off cycle budget";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("1.5e+11 on/off cycles"),
              std::string::npos)
        << e.what();
  }
}

TEST(PipelineSim, TraceCapsOfZeroAndOneStayBounded) {
  // ~1600 deliveries: far more records than a cap of 0 or 1 holds, on the
  // recurrence (unlimited queues) and on the DES (bounded queues).
  const std::vector<NodeSpec> nodes{stage("a", 200, 220, 240),
                                    stage("b", 150, 160, 170)};
  for (const std::size_t queue : {SimConfig::kUnlimitedQueue,
                                  std::size_t{8}}) {
    auto full = config(1.0);
    full.queue_capacity = queue;
    const SimResult reference = simulate(nodes, source(100), full);
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
      auto c = full;
      c.max_trace_samples = cap;
      const SimResult r = simulate(nodes, source(100), c);
      EXPECT_LE(r.output_trace.size(), cap);
      EXPECT_LE(r.backlog_trace.size(), cap);
      EXPECT_LE(r.delay_trace.size(), cap);
      EXPECT_EQ(r.packets_delivered, reference.packets_delivered);
      EXPECT_EQ(r.max_delay.in_seconds(), reference.max_delay.in_seconds());
      if (cap == 1) {
        ASSERT_EQ(r.output_trace.size(), 1u);
        EXPECT_EQ(r.output_trace.front(), reference.output_trace.front());
      }
    }
  }
  // Both engines directly, on the same chain.
  auto c = config(1.0);
  c.max_trace_samples = 0;
  const DagSpec dag = DagSpec::chain(nodes);
  const auto rec = detail::simulate_recurrence(dag, source(100), c);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->backlog_trace.empty());
  EXPECT_TRUE(detail::simulate_des(dag, source(100), c).backlog_trace.empty());
}


TEST(PipelineSim, RateProfileModulatesTheSource) {
  // 100 MiB/s for 1 s, idle 0.5 s, 40 MiB/s after: delivered volume over
  // 2 s is ~100 + 0 + 20 = 120 MiB.
  auto c = config(2.0);
  c.rate_profile = {{0.0, DataRate::mib_per_sec(100).in_bytes_per_sec()},
                    {1.0, 0.0},
                    {1.5, DataRate::mib_per_sec(40).in_bytes_per_sec()}};
  const auto r = simulate({stage("fast", 300, 320, 340)}, source(100), c);
  EXPECT_NEAR(r.throughput.in_mib_per_sec() * 2.0, 120.0, 8.0);
}

TEST(PipelineSim, RateProfileValidated) {
  auto c = config(1.0);
  c.rate_profile = {{0.5, 100.0}};  // must start at 0
  EXPECT_THROW(simulate({stage("s", 80, 100, 120)}, source(50), c),
               util::PreconditionError);
}

TEST(SampleInRange, MeanMatchesMid) {
  util::Xoshiro256 rng(5);
  double sum = 0.0;
  constexpr int kN = 200000;
  const detail::RangeSampler sampler(1.0, 1.3, 4.0);
  for (int i = 0; i < kN; ++i) sum += sampler.draw(rng);
  EXPECT_NEAR(sum / kN, 1.3, 0.01);
}

TEST(SampleInRange, StaysWithinBounds) {
  util::Xoshiro256 rng(5);
  const detail::RangeSampler sampler(2.0, 3.0, 5.0);
  for (int i = 0; i < 10000; ++i) {
    const double v = sampler.draw(rng);
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 5.0);
  }
}

TEST(SampleInRange, DegenerateRange) {
  util::Xoshiro256 rng(5);
  EXPECT_EQ(detail::RangeSampler(2.0, 2.0, 2.0).draw(rng), 2.0);
}

TEST(SampleVolumeRatio, MeanMatchesAvg) {
  util::Xoshiro256 rng(9);
  const netcalc::VolumeRatio v =
      netcalc::VolumeRatio::from_compression(1.0, 2.2, 5.3);
  double sum = 0.0;
  constexpr int kN = 200000;
  const detail::RangeSampler sampler(v.min, v.avg, v.max);
  for (int i = 0; i < kN; ++i) sum += sampler.draw(rng);
  EXPECT_NEAR(sum / kN, v.avg, 0.005);
}

}  // namespace
}  // namespace streamcalc::streamsim
