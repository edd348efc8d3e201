// Equivalence of the two streamsim engines. Wherever the max-plus
// recurrence answers, its SimResult must equal the coroutine DES's bit for
// bit: throughput, delays, max backlog, delivered count, all three traces
// and every node's jobs and utilization. Cases are the example specs and
// seeded random chains and DAGs (aggregation, block misalignment, every
// volume mode, restoring stages, lossy splits, bursts, rate profiles,
// Poisson arrivals with exponential service, deterministic mode), 200 per
// family at the default budget; every family grows with
// STREAMCALC_FUZZ_CASES through testing::scaled_cases, and a smaller
// budget (the sanitizer jobs') still runs 200. Constructed
// same-instant cases pin the tie rules: a source emit precedes a sink
// delivery, the horizon is inclusive, and twin producers into a join or
// the sink make simulate_dag() fall back to the DES and still return the
// DES result. Constructed cases also pin jobs emitting several packets,
// aggregation, a node cut at the horizon, the two-producer join and the
// emit-before-delivery fold (DirectPath), and the recurrence's rounds
// where one ends (RoundBoundary).
// On/off users run on the recurrence alone (EngineSelection); their pins
// are in onoff_pin_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/spec.hpp"
#include "obs/obs.hpp"
#include "streamsim/detail/engines.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "testing/compare.hpp"
#include "testing/property.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace streamcalc::streamsim {
namespace {

using netcalc::DagEdge;
using netcalc::DagSpec;
using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;
using util::Xoshiro256;

/// Cases per family: 200 at the default budget and never fewer.
int seeds() {
  static const int n = std::max(200, streamcalc::testing::scaled_cases(200));
  return n;
}

/// Every SimResult field, compared bit for bit.
::testing::AssertionResult identical(const SimResult& a, const SimResult& b) {
  const std::string diff = streamcalc::testing::bit_diff(a, b);
  if (diff.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << diff;
}

/// Tally of one case family: how often the recurrence answered.
struct Coverage {
  int cases = 0;
  int answered = 0;

  ~Coverage() {
    ::testing::Test::RecordProperty("cases", cases);
    ::testing::Test::RecordProperty("answered", answered);
  }
};

/// Runs both engines on one case (a chain as its one-path DAG); the
/// recurrence's answer, if any, must match the DES.
void check(const DagSpec& dag, const SourceSpec& source,
           const SimConfig& config, const std::string& label, Coverage& cov) {
  const std::optional<SimResult> rec =
      detail::simulate_recurrence(dag, source, config);
  ++cov.cases;
  if (!rec) return;
  ++cov.answered;
  EXPECT_TRUE(identical(*rec, detail::simulate_des(dag, source, config)))
      << label;
}

// --- Example specs ------------------------------------------------------

cli::Spec load_spec(const std::string& name) {
  std::ifstream in(std::string(SC_SPEC_DIR) + "/" + name + ".scspec");
  std::stringstream text;
  text << in.rdbuf();
  return cli::parse_spec(text.str());
}

/// The spec's analysis configuration with unlimited queues; seeds past the
/// first vary the volume mode, and every tenth runs deterministic.
SimConfig spec_config(const cli::Spec& spec, int k) {
  SimConfig c;
  c.horizon = spec.analysis.horizon;
  c.warmup = spec.analysis.horizon / 5.0;
  c.seed = spec.analysis.seed + static_cast<std::uint64_t>(k);
  c.volume_mode = static_cast<VolumeMode>(k % 4);
  c.deterministic = k % 10 == 9;
  return c;
}

class ExampleSpecs : public ::testing::TestWithParam<const char*> {};

TEST_P(ExampleSpecs, RecurrenceMatchesDesOnEverySeed) {
  const cli::Spec spec = load_spec(GetParam());
  Coverage cov;
  for (int k = 0; k < seeds(); ++k) {
    const SimConfig c = spec_config(spec, k);
    const std::string label =
        std::string(GetParam()) + " seed " + std::to_string(c.seed);
    check(spec.is_dag() ? spec.dag() : DagSpec::chain(spec.nodes),
          spec.source, c, label, cov);
  }
  // Continuous draws never tie; only deterministic seeds may fall back.
  EXPECT_GE(cov.answered, seeds() * 9 / 10) << cov.cases << " cases";
}

INSTANTIATE_TEST_SUITE_P(Specs, ExampleSpecs,
                         ::testing::Values("quickstart", "fork_join", "bitw",
                                           "onoff_users"));

// --- Random topologies --------------------------------------------------

/// Which random case family to draw.
enum class Family {
  kSampled,        ///< uniform-mixture service, every volume mode
  kRateProfile,    ///< chain source with idle and busy profile phases
  kPoisson,        ///< Poisson arrivals, exponential service
  kDeterministic,  ///< mean times and volumes
};

double pick(Xoshiro256& rng, std::initializer_list<double> values) {
  const auto i = static_cast<std::size_t>(
      rng.uniform01() * static_cast<double>(values.size()));
  return values.begin()[i];
}

/// A stage serving `offered` bytes/s of its own input at 0.6-1.6x load.
NodeSpec random_node(Xoshiro256& rng, const std::string& name,
                     double offered) {
  const DataSize block = DataSize::kib(pick(rng, {4, 8, 12, 16, 64}));
  const double avg = offered / rng.uniform(0.6, 1.6);
  NodeSpec n = NodeSpec::from_rates(
      name, NodeKind::kCompute, block,
      DataRate::bytes_per_sec(avg * rng.uniform(0.6, 0.95)),
      DataRate::bytes_per_sec(avg),
      DataRate::bytes_per_sec(avg * rng.uniform(1.05, 1.5)));
  if (rng.uniform01() < 0.4) {
    n.block_out = DataSize::kib(pick(rng, {2, 5, 8, 16, 32}));
  }
  n.aggregates = rng.uniform01() < 0.6;
  if (rng.uniform01() < 0.4) {
    const double lo = rng.uniform(0.3, 1.0);
    const double mid = rng.uniform(lo, 1.4);
    n.volume = {lo, mid, rng.uniform(mid, 2.0)};
  }
  n.restores_volume = rng.uniform01() < 0.15;
  return n;
}

/// A source and configuration delivering ~150-400 packets.
struct Run {
  SourceSpec source;
  SimConfig config;
};

Run random_run(Xoshiro256& rng, Family family, double first_block) {
  Run r;
  const double rate = DataRate::mib_per_sec(rng.uniform(10.0, 100.0))
                          .in_bytes_per_sec();
  r.source.rate = DataRate::bytes_per_sec(rate);
  const double packet = pick(rng, {0, 4, 16, 64}) * 1024.0;
  r.source.packet = DataSize::bytes(packet);
  const double sized = packet > 0.0 ? packet : first_block;
  r.source.burst = DataSize::bytes(sized * pick(rng, {0, 0, 1, 2.5, 6}));
  const double h = rng.uniform(150.0, 400.0) * sized / rate;
  r.config.horizon = Duration::seconds(h);
  r.config.warmup = Duration::seconds(h * rng.uniform(0.0, 0.3));
  r.config.seed = rng();
  r.config.volume_mode = static_cast<VolumeMode>(rng() % 4);
  r.config.max_trace_samples =
      static_cast<std::size_t>(pick(rng, {4096, 4096, 64, 7, 2, 1, 0}));
  switch (family) {
    case Family::kSampled:
      break;
    case Family::kRateProfile: {
      double t = 0.0;
      r.config.rate_profile.push_back({0.0, rate * rng.uniform(0.5, 1.5)});
      for (int k = 0; k < 3; ++k) {
        t += h * rng.uniform(0.1, 0.3);
        const double phase =
            rng.uniform01() < 0.4 ? 0.0 : rng.uniform(0.3, 2.0);
        r.config.rate_profile.push_back({t, rate * phase});
      }
      break;
    }
    case Family::kPoisson:
      r.config.poisson_arrivals = true;
      r.config.service_distribution = TimeDistribution::kExponential;
      break;
    case Family::kDeterministic:
      r.config.deterministic = true;
      break;
  }
  return r;
}

/// Mean bytes per second a node emits when offered `offered`.
double passed_on(const NodeSpec& n, double offered) {
  return n.restores_volume ? offered : offered * n.volume.avg;
}

void random_chains(Family family, const char* name) {
  Coverage cov;
  for (int k = 0; k < seeds(); ++k) {
    Xoshiro256 rng(0xC4A1 + 7919 * static_cast<std::uint64_t>(k) +
                   static_cast<std::uint64_t>(family));
    Run run = random_run(rng, family, 0.0);
    std::vector<NodeSpec> nodes;
    const auto hops = static_cast<int>(rng.uniform(1.0, 5.99));
    double offered = run.source.rate.in_bytes_per_sec();
    for (int i = 0; i < hops; ++i) {
      // Appended rather than "n" + std::to_string(i): GCC 12 at -O3 raises
      // a false -Werror=restrict on that operator+ overload.
      std::string node_name = "n";
      node_name += std::to_string(i);
      nodes.push_back(random_node(rng, node_name, offered));
      offered = passed_on(nodes.back(), offered);
    }
    if (run.source.packet.in_bytes() <= 0.0) {
      // The first node sizes the source's packets; rescale the horizon.
      const double sized = nodes.front().block_in.in_bytes();
      const double packets = rng.uniform(150.0, 400.0);
      const double h = packets * sized / run.source.rate.in_bytes_per_sec();
      run.config.horizon = Duration::seconds(h);
      run.config.warmup = Duration::seconds(h * 0.2);
      if (!run.config.rate_profile.empty()) {
        for (std::size_t p = 1; p < run.config.rate_profile.size(); ++p) {
          run.config.rate_profile[p].first = h * 0.2 * static_cast<double>(p);
        }
      }
    }
    check(DagSpec::chain(nodes), run.source, run.config,
          std::string(name) + " case " + std::to_string(k), cov);
  }
  const int floor = family == Family::kDeterministic ? seeds() / 2
                                                     : seeds() * 19 / 20;
  EXPECT_GE(cov.answered, floor) << cov.cases << " cases";
}

TEST(RandomChains, Sampled) { random_chains(Family::kSampled, "sampled"); }
TEST(RandomChains, RateProfile) {
  random_chains(Family::kRateProfile, "rate profile");
}
TEST(RandomChains, PoissonExponential) {
  random_chains(Family::kPoisson, "poisson");
}
TEST(RandomChains, Deterministic) {
  random_chains(Family::kDeterministic, "deterministic");
}

/// A random DAG over 2-6 nodes: every node after the first hangs off one or
/// two earlier nodes, some splits leak a share out of the system, and some
/// sources feed a second entry that is also a join.
DagSpec random_dag(Xoshiro256& rng, double rate) {
  DagSpec d;
  const auto n = static_cast<std::size_t>(rng.uniform(2.0, 6.99));
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 1; i < n; ++i) {
    const auto p = static_cast<std::size_t>(rng.uniform01() *
                                            static_cast<double>(i));
    children[p].push_back(i);
    if (i >= 2 && rng.uniform01() < 0.3) {
      const auto q = static_cast<std::size_t>(rng.uniform01() *
                                              static_cast<double>(i));
      if (q != p) children[q].push_back(i);
    }
  }
  d.entries.push_back({0, 0, 1.0});
  const double entry_roll = rng.uniform01();
  if (entry_roll < 0.15) {
    d.entries[0].fraction = 0.7;  // 30% never enters
  } else if (entry_roll < 0.3 && n > 2) {
    d.entries[0].fraction = 0.6;
    d.entries.push_back({0, n - 1, 0.4});
  }
  // Offered rates in topological (index) order.
  std::vector<double> offered(n, 0.0);
  for (const DagEdge& e : d.entries) offered[e.to] += rate * e.fraction;
  for (std::size_t i = 0; i < n; ++i) {
    d.nodes.push_back(random_node(rng, "d" + std::to_string(i), offered[i]));
    const double out = passed_on(d.nodes.back(), offered[i]);
    const std::size_t k = children[i].size();
    if (k == 0) continue;
    const double total = rng.uniform01() < 0.3 ? rng.uniform(0.5, 0.95) : 1.0;
    std::vector<double> w(k);
    double sum = 0.0;
    for (double& x : w) sum += (x = rng.uniform(0.2, 1.0));
    for (std::size_t c = 0; c < k; ++c) {
      const double f = total * w[c] / sum;
      d.edges.push_back({i, children[i][c], f});
      offered[children[i][c]] += out * f;
    }
  }
  return d;
}

void random_dags(Family family, const char* name) {
  Coverage cov;
  for (int k = 0; k < seeds(); ++k) {
    Xoshiro256 rng(0xDA6 + 104729 * static_cast<std::uint64_t>(k) +
                   static_cast<std::uint64_t>(family));
    Run run = random_run(rng, family, 0.0);
    run.config.rate_profile.clear();  // chain-only
    const DagSpec dag = random_dag(rng, run.source.rate.in_bytes_per_sec());
    if (run.source.packet.in_bytes() <= 0.0) {
      const double sized =
          dag.nodes[dag.entries.front().to].block_in.in_bytes();
      const double h = rng.uniform(150.0, 400.0) * sized /
                       run.source.rate.in_bytes_per_sec();
      run.config.horizon = Duration::seconds(h);
      run.config.warmup = Duration::seconds(h * 0.2);
    }
    check(dag, run.source, run.config,
              std::string(name) + " case " + std::to_string(k), cov);
  }
  const int floor = family == Family::kDeterministic ? seeds() / 4
                                                     : seeds() * 19 / 20;
  EXPECT_GE(cov.answered, floor) << cov.cases << " cases";
}

TEST(RandomDags, Sampled) { random_dags(Family::kSampled, "sampled"); }
TEST(RandomDags, PoissonExponential) {
  random_dags(Family::kPoisson, "poisson");
}
TEST(RandomDags, Deterministic) {
  random_dags(Family::kDeterministic, "deterministic");
}

// --- Engine selection ---------------------------------------------------

// --- Same-instant events -------------------------------------------------

/// A deterministic chain on dyadic times: the source emits every 2^-10 s
/// and the single stage takes exactly as long, so every delivery lands on
/// the instant of the next emit, and the last one on the horizon itself.
/// A 64 KiB stage taking exactly `exec` seconds per job.
NodeSpec dyadic_stage(const char* name, double exec = 0x1p-10) {
  return NodeSpec::compute(name, DataSize::kib(64), DataSize::kib(64),
                           Duration::seconds(exec), Duration::seconds(exec));
}

SourceSpec dyadic_source() {
  SourceSpec src;
  src.rate = DataRate::bytes_per_sec(0x1p16 * 0x1p10);
  src.packet = DataSize::kib(64);
  return src;
}

SimConfig dyadic_config() {
  SimConfig c;
  c.horizon = Duration::seconds(0.25);
  c.deterministic = true;
  return c;
}

TEST(SameInstant, EmitPrecedesDeliveryAndTheHorizonIsInclusive) {
  const DagSpec dag = DagSpec::chain({dyadic_stage("stage")});
  const SourceSpec src = dyadic_source();
  const SimConfig c = dyadic_config();
  const std::optional<SimResult> rec = detail::simulate_recurrence(dag, src, c);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(identical(*rec, detail::simulate_des(dag, src, c)));
  std::size_t shared_instants = 0;
  for (std::size_t i = 1; i < rec->backlog_trace.size(); ++i) {
    if (rec->backlog_trace[i].first == rec->backlog_trace[i - 1].first) {
      ++shared_instants;
    }
  }
  EXPECT_GT(shared_instants, 200u);
  ASSERT_FALSE(rec->output_trace.empty());
  EXPECT_EQ(rec->output_trace.back().first, 0.25);
}

/// The fork emits each job as two half-block packets at one instant, one
/// per branch; two identical deterministic branches then deliver into the
/// join at the same instants, so the recurrence cannot order its queue.
DagSpec tied_join() {
  const NodeSpec stage = NodeSpec::from_rates(
      "stage", NodeKind::kCompute, DataSize::kib(64),
      DataRate::mib_per_sec(200), DataRate::mib_per_sec(220),
      DataRate::mib_per_sec(240));
  DagSpec d;
  d.nodes = {stage, stage, stage, stage};
  d.nodes[0].name = "fork";
  d.nodes[0].block_out = DataSize::kib(32);
  d.nodes[1].name = "left";
  d.nodes[2].name = "right";
  d.nodes[3].name = "join";
  d.edges = {{0, 1, 0.5}, {0, 2, 0.5}, {1, 3, 1.0}, {2, 3, 1.0}};
  d.entries = {{0, 0, 1.0}};
  return d;
}

/// tied_join() without the join: the twin branches deliver into the sink
/// at the same instants.
DagSpec tied_sink() {
  DagSpec d = tied_join();
  d.nodes.pop_back();
  d.edges.resize(2);
  return d;
}

/// The head keeps half its output and drops the rest at the instants of
/// later emits, an order the recurrence does not track. The tail's
/// deliveries fall between emits.
TEST(SameInstant, DropBesideAnEmitFallsBackToTheDes) {
  DagSpec dag;
  dag.nodes = {dyadic_stage("head"), dyadic_stage("tail", 0x1p-11)};
  dag.edges = {{0, 1, 0.5}};
  dag.entries = {{0, 0, 1.0}};
  const SourceSpec src = dyadic_source();
  const SimConfig c = dyadic_config();
  EXPECT_FALSE(detail::simulate_recurrence(dag, src, c).has_value());
  const SimResult r = simulate_dag(dag, src, c);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_TRUE(identical(r, detail::simulate_des(dag, src, c)));
}

TEST(SameInstant, TwinSinkDeliveriesFallBackToTheDes) {
  SourceSpec src;
  src.rate = DataRate::mib_per_sec(100);
  src.packet = DataSize::kib(64);
  SimConfig c;
  c.horizon = Duration::seconds(0.2);
  c.deterministic = true;
  const DagSpec dag = tied_sink();
  EXPECT_FALSE(detail::simulate_recurrence(dag, src, c).has_value());
  const SimResult r = simulate_dag(dag, src, c);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_TRUE(identical(r, detail::simulate_des(dag, src, c)));
}

double counter(const char* name) {
  return static_cast<double>(
      obs::Registry::global().counter(name).value());
}

class EngineSelection : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
};

TEST_F(EngineSelection, QuickstartTakesTheRecurrence) {
  const cli::Spec spec = load_spec("quickstart");
  SimConfig c = spec_config(spec, 0);
  const double runs = counter("streamsim.recurrence.runs");
  const double fallbacks = counter("streamsim.recurrence.fallbacks");
  const double events = counter("des.events");
  const SimResult r = simulate(spec.nodes, spec.source, c);
  EXPECT_EQ(counter("streamsim.recurrence.runs"), runs + 1.0);
  EXPECT_EQ(counter("streamsim.recurrence.fallbacks"), fallbacks);
  EXPECT_EQ(counter("des.events"), events);
  EXPECT_TRUE(identical(
      r, detail::simulate_des(DagSpec::chain(spec.nodes), spec.source, c)));
}

TEST_F(EngineSelection, FiniteQueuesStayOnTheDes) {
  const cli::Spec spec = load_spec("bitw");
  SimConfig c = spec_config(spec, 0);
  c.queue_capacity = spec.analysis.queue_capacity;
  ASSERT_FALSE(detail::recurrence_applies(c));
  const double runs = counter("streamsim.recurrence.runs");
  const double events = counter("des.events");
  (void)simulate(spec.nodes, spec.source, c);
  EXPECT_EQ(counter("streamsim.recurrence.runs"), runs);
  EXPECT_GT(counter("des.events"), events);
}

/// quickstart's analysis configuration fed by three on/off users.
SimConfig onoff_config(const cli::Spec& spec) {
  SimConfig c = spec_config(spec, 0);
  c.onoff_users = 3;
  c.onoff_peak = spec.source.rate;
  c.onoff_mean_on = spec.analysis.horizon / 50.0;
  c.onoff_mean_off = spec.analysis.horizon / 25.0;
  return c;
}

TEST_F(EngineSelection, OnOffUsersTakeTheRecurrence) {
  const cli::Spec spec = load_spec("quickstart");
  const SimConfig c = onoff_config(spec);
  ASSERT_TRUE(detail::recurrence_applies(c));
  const double runs = counter("streamsim.recurrence.runs");
  const double fallbacks = counter("streamsim.recurrence.fallbacks");
  const double events = counter("des.events");
  const SimResult r = simulate(spec.nodes, spec.source, c);
  EXPECT_EQ(counter("streamsim.recurrence.runs"), runs + 1.0);
  EXPECT_EQ(counter("streamsim.recurrence.fallbacks"), fallbacks);
  EXPECT_EQ(counter("des.events"), events);
  EXPECT_GT(r.packets_delivered, 0u);
}

TEST_F(EngineSelection, OnOffUsersNeedUnlimitedQueues) {
  const cli::Spec spec = load_spec("quickstart");
  const DagSpec dag = DagSpec::chain(spec.nodes);
  SimConfig c = onoff_config(spec);
  // The DES runs no on/off users at all.
  EXPECT_THROW(detail::simulate_des(dag, spec.source, c),
               util::PreconditionError);
  c.queue_capacity = 4;
  EXPECT_THROW(simulate(spec.nodes, spec.source, c), util::PreconditionError);
  EXPECT_THROW(detail::simulate_des(dag, spec.source, c),
               util::PreconditionError);
}

TEST_F(EngineSelection, JoinTieFallsBackToTheDes) {
  const DagSpec dag = tied_join();
  SourceSpec src;
  src.rate = DataRate::mib_per_sec(100);
  src.packet = DataSize::kib(64);
  SimConfig c;
  c.horizon = Duration::seconds(0.2);
  c.deterministic = true;
  ASSERT_FALSE(detail::simulate_recurrence(dag, src, c).has_value());
  const double runs = counter("streamsim.recurrence.runs");
  const double fallbacks = counter("streamsim.recurrence.fallbacks");
  const SimResult r = simulate_dag(dag, src, c);
  EXPECT_EQ(counter("streamsim.recurrence.runs"), runs);
  EXPECT_EQ(counter("streamsim.recurrence.fallbacks"), fallbacks + 1.0);
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_TRUE(identical(r, detail::simulate_des(dag, src, c)));
}

// --- Direct paths ----------------------------------------------------------

/// Runs simulate() (or simulate_dag()) once traced and once untraced, each
/// of which must take the recurrence, adding one to
/// streamsim.recurrence.runs and none to the fallbacks, and match the DES
/// bit for bit. Returns the untraced result.
class DirectPath : public EngineSelection {
 protected:
  SimResult expect_recurrence(const std::vector<NodeSpec>& nodes,
                              const SourceSpec& src, SimConfig c) {
    return expect_recurrence_run(c, [&](const SimConfig& k) {
      return std::pair{simulate(nodes, src, k),
                       detail::simulate_des(DagSpec::chain(nodes), src, k)};
    });
  }

  SimResult expect_recurrence(const DagSpec& dag, const SourceSpec& src,
                              SimConfig c) {
    return expect_recurrence_run(c, [&](const SimConfig& k) {
      return std::pair{simulate_dag(dag, src, k),
                       detail::simulate_des(dag, src, k)};
    });
  }

 private:
  template <typename Run>
  SimResult expect_recurrence_run(SimConfig c, Run run) {
    SimResult untraced;
    for (const std::size_t samples : {std::size_t{4096}, std::size_t{0}}) {
      c.max_trace_samples = samples;
      const double runs = counter("streamsim.recurrence.runs");
      const double fallbacks = counter("streamsim.recurrence.fallbacks");
      auto [r, des] = run(c);
      EXPECT_EQ(counter("streamsim.recurrence.runs"), runs + 1.0)
          << "seed " << c.seed << ", " << samples << " trace samples";
      EXPECT_EQ(counter("streamsim.recurrence.fallbacks"), fallbacks);
      EXPECT_TRUE(identical(r, des))
          << "seed " << c.seed << ", " << samples << " trace samples";
      untraced = std::move(r);
    }
    return untraced;
  }
};

/// A 64 KiB stage that emits four 16 KiB packets per job, then two
/// 16 KiB stages, the middle one taking `mid_min`-`mid_max` per job. Every
/// hand-off after the first node carries four copies.
std::vector<NodeSpec> splitting_chain(Duration mid_min, Duration mid_max) {
  return {NodeSpec::compute("split", DataSize::kib(64), DataSize::kib(16),
                            Duration::micros(200), Duration::micros(500)),
          NodeSpec::compute("mid", DataSize::kib(16), DataSize::kib(16),
                            mid_min, mid_max),
          NodeSpec::compute("tail", DataSize::kib(16), DataSize::kib(16),
                            Duration::micros(30), Duration::micros(100))};
}

SimConfig sampled_config(double horizon, std::uint64_t seed) {
  SimConfig c;
  c.horizon = Duration::seconds(horizon);
  c.warmup = Duration::seconds(horizon / 5.0);
  c.seed = seed;
  return c;
}

TEST_F(DirectPath, ChainJobsEmittingSeveralPacketsMatchTheDes) {
  const std::vector<NodeSpec> nodes =
      splitting_chain(Duration::micros(50), Duration::micros(140));
  const SourceSpec src = dyadic_source();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SimResult r = expect_recurrence(nodes, src, sampled_config(0.2, seed));
    ASSERT_EQ(r.node_stats.size(), 3u);
    EXPECT_GT(r.node_stats[0].jobs, 100u);
    // One job upstream is four jobs downstream, but for the horizon cut.
    EXPECT_GE(r.node_stats[1].jobs + 4, 4 * r.node_stats[0].jobs);
  }
}

/// Gathers four source packets per 256 KiB job, whose output an
/// aggregating 64 KiB stage splits into about four jobs. The volume ratio
/// of the first stage is sampled, so some packets complete three jobs or
/// five and leave a remainder for the next one.
TEST_F(DirectPath, AggregatingNodeCompletingSeveralJobsFromOnePacket) {
  std::vector<NodeSpec> nodes{
      NodeSpec::compute("gather", DataSize::kib(256), DataSize::kib(256),
                        Duration::micros(300), Duration::micros(900)),
      NodeSpec::compute("cut", DataSize::kib(64), DataSize::kib(64),
                        Duration::micros(60), Duration::micros(200)),
      NodeSpec::compute("out", DataSize::kib(64), DataSize::kib(64),
                        Duration::micros(40), Duration::micros(150))};
  nodes[0].volume = {0.8, 1.0, 1.2};
  const SourceSpec src = dyadic_source();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SimResult r = expect_recurrence(nodes, src, sampled_config(0.2, seed));
    EXPECT_GT(r.node_stats[1].jobs, 3 * r.node_stats[0].jobs);
  }
}

/// The middle stage runs at 1.6x load, so its backlog carries it past the
/// horizon while the first stage still hands it packets: the horizon cuts
/// it partway through the four copies of a hand-off in some seeds, and a
/// cut node must take no later input, even where a later draw would end
/// within the horizon.
TEST_F(DirectPath, NodeCutAtTheHorizonInTheMiddleOfAHandOff) {
  const std::vector<NodeSpec> nodes =
      splitting_chain(Duration::micros(200), Duration::micros(600));
  const SourceSpec src = dyadic_source();
  int cut_in_a_hand_off = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const double horizon = 0.05 + 1e-5 * static_cast<double>(seed);
    const SimResult r =
        expect_recurrence(nodes, src, sampled_config(horizon, seed));
    // All four copies of a hand-off arrive at once, so a count that is
    // not a multiple of four means one was cut partway.
    if (r.node_stats[1].jobs % 4 != 0) ++cut_in_a_hand_off;
  }
  EXPECT_GT(cut_in_a_hand_off, 5);
}

/// An alternating fork into a slow branch, 2^-16 s behind its 2P arrival
/// period and so ever more backlogged, and a fast one. With the source
/// period P = 2^-10 s, the slow branch's 96th output leaves at 194.5 P,
/// exactly when the fast branch's 97th does; no two outputs meet before.
DagSpec late_tie_join() {
  DagSpec d;
  d.nodes = {dyadic_stage("fork", 0x1p-14),
             dyadic_stage("slow", 0x1p-9 + 0x1p-16),
             dyadic_stage("fast", 0x1p-11), dyadic_stage("join", 0x1p-12)};
  d.edges = {{0, 1, 0.5}, {0, 2, 0.5}, {1, 3, 1.0}, {2, 3, 1.0}};
  d.entries = {{0, 0, 1.0}};
  return d;
}

TEST_F(DirectPath, TwoProducerJoinAnswersBeforeALateTieAndFallsBackAfter) {
  const DagSpec dag = late_tie_join();
  const SourceSpec src = dyadic_source();
  SimConfig c = dyadic_config();
  c.horizon = Duration::seconds(194.0 * 0x1p-10);
  const SimResult prefix = expect_recurrence(dag, src, c);
  EXPECT_GT(prefix.packets_delivered, 150u);

  c.horizon = Duration::seconds(0.25);
  ASSERT_FALSE(detail::simulate_recurrence(dag, src, c).has_value());
  const double runs = counter("streamsim.recurrence.runs");
  const double fallbacks = counter("streamsim.recurrence.fallbacks");
  const SimResult r = simulate_dag(dag, src, c);
  EXPECT_EQ(counter("streamsim.recurrence.runs"), runs);
  EXPECT_EQ(counter("streamsim.recurrence.fallbacks"), fallbacks + 1.0);
  EXPECT_GT(r.packets_delivered, prefix.packets_delivered);
  EXPECT_TRUE(identical(r, detail::simulate_des(dag, src, c)));
}

/// Every delivery of the dyadic chain lands on the instant of an emit,
/// also after the warmup, where the order sets the peak backlog: the emit
/// first holds two packets, the delivery first only one.
TEST_F(DirectPath, EmitBeforeDeliveryTieAfterWarmupInTheOneOutletFold) {
  const std::vector<NodeSpec> nodes{dyadic_stage("stage")};
  const SourceSpec src = dyadic_source();
  SimConfig c = dyadic_config();
  c.warmup = Duration::seconds(0.125);
  const SimResult r = expect_recurrence(nodes, src, c);
  EXPECT_EQ(r.max_backlog.in_bytes(), 2.0 * 65536.0);
  EXPECT_GT(r.packets_delivered, 200u);
}

// --- Round boundaries -----------------------------------------------------

/// Pins the round loop where a round ends: the recurrence releases
/// detail::kRoundPackets source packets per round, and every node, join
/// watermark and stats fold picks up across that boundary.
class RoundBoundary : public DirectPath {
 protected:
  /// Runs simulate_dag() once traced and once untraced, each of which must
  /// find a tie the recurrence does not order, add one to
  /// streamsim.recurrence.fallbacks and none to the runs, and return the
  /// DES result bit for bit.
  void expect_fallback(const DagSpec& dag, const SourceSpec& src,
                       SimConfig c) {
    for (const std::size_t samples : {std::size_t{4096}, std::size_t{0}}) {
      c.max_trace_samples = samples;
      EXPECT_FALSE(detail::simulate_recurrence(dag, src, c).has_value());
      const double runs = counter("streamsim.recurrence.runs");
      const double fallbacks = counter("streamsim.recurrence.fallbacks");
      const SimResult r = simulate_dag(dag, src, c);
      EXPECT_EQ(counter("streamsim.recurrence.runs"), runs) << samples;
      EXPECT_EQ(counter("streamsim.recurrence.fallbacks"), fallbacks + 1.0)
          << samples;
      EXPECT_TRUE(identical(r, detail::simulate_des(dag, src, c))) << samples;
    }
  }
};

constexpr double kRound = static_cast<double>(detail::kRoundPackets);
/// The dyadic source's period: one 64 KiB packet every 2^-10 s.
constexpr double kPeriod = 0x1p-10;

/// Source emits in a traced result: the backlog rises at each one.
std::size_t emits(const SimResult& r) {
  std::size_t n = 0;
  double backlog = 0.0;
  for (const auto& [t, b] : r.backlog_trace) {
    if (b > backlog) ++n;
    backlog = b;
  }
  return n;
}

/// A 64 KiB stage taking `lo`-`hi` microseconds per job.
NodeSpec sampled_stage(const char* name, double lo, double hi) {
  return NodeSpec::compute(name, DataSize::kib(64), DataSize::kib(64),
                           Duration::micros(lo), Duration::micros(hi));
}

/// A fork into two branches of `left` and `right` shares, joined again.
DagSpec sampled_fork_join(double left, double right) {
  DagSpec d;
  d.nodes = {sampled_stage("fork", 100, 300), sampled_stage("left", 200, 900),
             sampled_stage("right", 200, 900), sampled_stage("join", 100, 400)};
  d.edges = {{0, 1, left}, {0, 2, right}, {1, 3, 1.0}, {2, 3, 1.0}};
  d.entries = {{0, 0, 1.0}};
  return d;
}

TEST_F(RoundBoundary, SourcePacketCountsAroundTheRoundSize) {
  const std::vector<NodeSpec> chain{sampled_stage("a", 300, 900),
                                    sampled_stage("b", 200, 800)};
  const DagSpec dag = sampled_fork_join(0.5, 0.5);
  const SourceSpec src = dyadic_source();
  for (const double packets : {kRound - 1, kRound, kRound + 1,
                               2 * kRound - 1, 2 * kRound, 2 * kRound + 1}) {
    // Emits at k periods for k = 1 .. packets, the last on the horizon.
    SimConfig c = sampled_config(packets * kPeriod, 7);
    const SimResult r = expect_recurrence(chain, src, c);
    EXPECT_GT(r.packets_delivered, 0u) << packets;
    (void)expect_recurrence(dag, src, c);
    c.max_trace_samples = 4096;
    EXPECT_EQ(emits(simulate(chain, src, c)), packets);
    EXPECT_EQ(emits(simulate_dag(dag, src, c)), packets);
  }
}

/// The rare branch gets one packet in fifty and gathers sixteen per job,
/// so it sends the join nothing for about six rounds: the join's
/// watermark holds at its silence and every packet of the busy branch
/// waits for it.
TEST_F(RoundBoundary, SilentBranchHoldsTheJoinWatermark) {
  DagSpec dag = sampled_fork_join(0.98, 0.02);
  dag.nodes[2].name = "rare";
  dag.nodes[2].block_in = DataSize::mib(1);
  dag.nodes[2].block_out = DataSize::kib(64);
  const SourceSpec src = dyadic_source();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const SimResult r =
        expect_recurrence(dag, src, sampled_config(1500 * kPeriod, seed));
    EXPECT_GT(r.node_stats[2].jobs, 0u);
    EXPECT_GT(r.node_stats[3].jobs, 1000u);
  }
}

/// The left branch gets a packet every two periods and takes about three
/// per job, so its finish times run ever further ahead of the source while
/// the join's watermark follows the right branch near the source's clock.
/// The join holds a growing backlog of left outputs round after round,
/// taking only those below the watermark, until the left branch passes
/// the horizon and the final round releases the rest.
TEST_F(RoundBoundary, OverloadedBranchBacklogsTheJoin) {
  DagSpec dag = sampled_fork_join(0.5, 0.5);
  dag.nodes[1] = sampled_stage("left", 2500, 3500);
  const SourceSpec src = dyadic_source();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const SimResult r =
        expect_recurrence(dag, src, sampled_config(4000 * kPeriod, seed));
    // About two thirds of the left branch's 2000 packets finish in time.
    EXPECT_LT(r.node_stats[1].jobs, 1500u);
    EXPECT_GT(r.node_stats[3].jobs, 2500u);
  }
}

/// A fifth of the fork's output leaves the system, so drops meet the emits
/// and deliveries in the stats merge, on either side of each round's end.
TEST_F(RoundBoundary, LossySplitBeforeAJoin) {
  const DagSpec dag = sampled_fork_join(0.5, 0.3);
  const SourceSpec src = dyadic_source();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SimConfig c = sampled_config(600 * kPeriod, seed);
    (void)expect_recurrence(dag, src, c);
    c.max_trace_samples = 4096;
    const SimResult traced = simulate_dag(dag, src, c);
    EXPECT_LT(static_cast<double>(traced.packets_delivered),
              0.85 * static_cast<double>(emits(traced)));
  }
}

/// The gather stage takes three source packets per job, and a round's 128
/// is not a multiple of three: a job starts from the last packets of one
/// round and completes with the first of the next.
TEST_F(RoundBoundary, AggregatingJobSpansARoundBoundary) {
  std::vector<NodeSpec> nodes{
      NodeSpec::compute("gather", DataSize::kib(192), DataSize::kib(192),
                        Duration::micros(500), Duration::micros(2500)),
      sampled_stage("out", 300, 2000)};
  nodes[0].volume = {0.8, 1.0, 1.2};
  const SourceSpec src = dyadic_source();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const SimResult r =
        expect_recurrence(nodes, src, sampled_config(400 * kPeriod, seed));
    EXPECT_GE(r.node_stats[0].jobs, 130u);
  }
}

/// late_tie_join() with a join taking three periods per job against one
/// arrival per period: the join passes the horizon (256 periods) partway
/// through the first round, after about 85 jobs, and its producers meet
/// at 194.5 periods in the second. A node past the horizon runs no more
/// jobs, but the tie on its input must still send the run to the DES.
TEST_F(RoundBoundary, JoinPastTheHorizonStillFallsBackOnALaterTie) {
  DagSpec dag = late_tie_join();
  dag.nodes[3] = dyadic_stage("join", 3 * kPeriod);
  const SourceSpec src = dyadic_source();
  SimConfig c = dyadic_config();
  c.horizon = Duration::seconds(194.0 * kPeriod);
  (void)expect_recurrence(dag, src, c);

  c.horizon = Duration::seconds(0.25);
  expect_fallback(dag, src, c);
  const SimResult des = detail::simulate_des(dag, src, c);
  EXPECT_GT(des.node_stats[3].jobs, 60u);
  EXPECT_LT(des.node_stats[3].jobs, 100u);
}

/// The source feeds a join directly and through a stage that takes two
/// periods and 2^-16 s per job, getting every other packet and falling
/// behind by 2^-16 s a job. The stage's 64th output, from packet 127 of
/// the first round, leaves at 130 periods, the instant the source sends
/// packet 130 of the second round straight to the join: the first round
/// computes one side of the tie and the second the other. At a 130-period
/// horizon the second round is the last; at 256 periods it is not, and
/// the join's watermark holds the first side back.
TEST_F(RoundBoundary, JoinTieAcrossARoundBoundary) {
  DagSpec dag;
  dag.nodes = {dyadic_stage("lag", 2 * kPeriod + 0x1p-16),
               dyadic_stage("join", kPeriod / 4)};
  dag.edges = {{0, 1, 1.0}};
  dag.entries = {{0, 0, 0.5}, {0, 1, 0.5}};
  const SourceSpec src = dyadic_source();
  SimConfig c = dyadic_config();
  c.horizon = Duration::seconds(129.0 * kPeriod);
  (void)expect_recurrence(dag, src, c);

  for (const double periods : {130.0, 256.0}) {
    c.horizon = Duration::seconds(periods * kPeriod);
    expect_fallback(dag, src, c);
  }
}

}  // namespace
}  // namespace streamcalc::streamsim
