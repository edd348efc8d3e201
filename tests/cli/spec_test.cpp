#include "cli/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cli/certify.hpp"
#include "cli/lint.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::cli {
namespace {

/// The example specs and the diagnostics fixtures, each split into lines.
std::vector<std::vector<std::string>> real_spec_lines() {
  std::vector<std::string> paths;
  for (const char* dir : {SC_SPEC_DIR, SC_LINT_SPEC_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".scspec") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::vector<std::string>> specs;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    specs.push_back(std::move(lines));
  }
  return specs;
}

/// One seeded mutant of a real spec: half the time a `key = value` line
/// gets an edge-case value, otherwise a line is dropped, duplicated or
/// truncated.
std::string mutate(std::vector<std::string> lines, util::Xoshiro256& rng) {
  static const char* const kValues[] = {
      "0", "-1", "1e308", "nan", "inf", "0 s", "1e30 GiB/s", ""};
  std::vector<std::size_t> keyed;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find(" = ") != std::string::npos) keyed.push_back(i);
  }
  const std::size_t i = rng() % lines.size();
  switch (rng() % 6) {
    case 0:
    case 1:
    case 2: {
      std::string& line = lines[keyed[rng() % keyed.size()]];
      line = line.substr(0, line.find(" = ") + 3) +
             kValues[rng() % std::size(kValues)];
      break;
    }
    case 3:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 4: {
      const std::string copy = lines[i];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), copy);
      break;
    }
    default:
      lines[i].resize(rng() % (lines[i].size() + 1));
      break;
  }
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

TEST(ParseQuantities, Sizes) {
  EXPECT_DOUBLE_EQ(parse_size("100 B").in_bytes(), 100.0);
  EXPECT_DOUBLE_EQ(parse_size("64 KiB").in_kib(), 64.0);
  EXPECT_DOUBLE_EQ(parse_size("1.5 MiB").in_mib(), 1.5);
  EXPECT_DOUBLE_EQ(parse_size("2 GiB").in_gib(), 2.0);
  EXPECT_DOUBLE_EQ(parse_size("  64KiB  ").in_kib(), 64.0);  // no space ok
  EXPECT_THROW(parse_size("64 KB"), util::PreconditionError);
  EXPECT_THROW(parse_size("lots"), util::PreconditionError);
}

TEST(ParseQuantities, Rates) {
  EXPECT_DOUBLE_EQ(parse_rate("100 MiB/s").in_mib_per_sec(), 100.0);
  EXPECT_DOUBLE_EQ(parse_rate("10 GiB/s").in_gib_per_sec(), 10.0);
  EXPECT_DOUBLE_EQ(parse_rate("512 B/s").in_bytes_per_sec(), 512.0);
  EXPECT_THROW(parse_rate("100 Mbps"), util::PreconditionError);
}

TEST(ParseQuantities, Durations) {
  EXPECT_DOUBLE_EQ(parse_duration("5 us").in_micros(), 5.0);
  EXPECT_DOUBLE_EQ(parse_duration("1.5 ms").in_millis(), 1.5);
  EXPECT_DOUBLE_EQ(parse_duration("2 s").in_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(parse_duration("100 ns").in_nanos(), 100.0);
  EXPECT_THROW(parse_duration("5 min"), util::PreconditionError);
}

constexpr const char* kMinimal = R"(
[source]
rate = 100 MiB/s
burst = 256 KiB
packet = 64 KiB

[node stage]
block_in = 64 KiB
rate_min = 120 MiB/s
rate_avg = 140 MiB/s
rate_max = 165 MiB/s
)";

TEST(ParseSpec, MinimalPipeline) {
  const Spec spec = parse_spec(kMinimal);
  EXPECT_DOUBLE_EQ(spec.source.rate.in_mib_per_sec(), 100.0);
  EXPECT_DOUBLE_EQ(spec.source.burst.in_kib(), 256.0);
  ASSERT_EQ(spec.nodes.size(), 1u);
  EXPECT_EQ(spec.nodes[0].name, "stage");
  EXPECT_NEAR(spec.nodes[0].rate_min().in_mib_per_sec(), 120.0, 1e-9);
  EXPECT_NEAR(spec.nodes[0].rate_avg().in_mib_per_sec(), 140.0, 1e-9);
  EXPECT_NEAR(spec.nodes[0].rate_max().in_mib_per_sec(), 165.0, 1e-9);
  // Defaults.
  EXPECT_EQ(spec.policy.service_basis, netcalc::RateBasis::kMin);
  EXPECT_FALSE(spec.analysis.simulate);
}

TEST(ParseSpec, LinkShorthandAndOverrides) {
  const Spec spec = parse_spec(R"(
[source]
rate = 10 MiB/s
[node wan]
kind = network
bandwidth = 1 GiB/s
packet = 32 KiB
propagation = 50 us
latency = 2 ms
)");
  ASSERT_EQ(spec.nodes.size(), 1u);
  const auto& n = spec.nodes[0];
  EXPECT_EQ(n.kind, netcalc::NodeKind::kNetworkLink);
  EXPECT_FALSE(n.aggregates);
  EXPECT_DOUBLE_EQ(n.latency_override.in_millis(), 2.0);
}

TEST(ParseSpec, CompressionAndVolumeSpread) {
  const Spec spec = parse_spec(R"(
[source]
rate = 10 MiB/s
[node lz]
block_in = 1 KiB
rate_min = 100 MiB/s
rate_avg = 200 MiB/s
rate_max = 300 MiB/s
compression = 1.0 2.2 5.3
[node unlz]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
volume_min = 1.0
volume_avg = 2.2
volume_max = 5.3
restores_volume = true
)");
  EXPECT_DOUBLE_EQ(spec.nodes[0].volume.min, 1.0 / 5.3);
  EXPECT_DOUBLE_EQ(spec.nodes[0].volume.max, 1.0);
  EXPECT_DOUBLE_EQ(spec.nodes[1].volume.max, 5.3);
  EXPECT_TRUE(spec.nodes[1].restores_volume);
}

TEST(ParseSpec, PolicyAndAnalysis) {
  const Spec spec = parse_spec(R"(
[source]
rate = 10 MiB/s
[node a]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
[policy]
service_basis = avg
max_service_basis = avg
max_service_latency = true
packetize = false
[analysis]
horizon = 250 us
simulate = true
seed = 9
queue_capacity = 2
)");
  EXPECT_EQ(spec.policy.service_basis, netcalc::RateBasis::kAvg);
  EXPECT_TRUE(spec.policy.max_service_latency);
  EXPECT_FALSE(spec.policy.packetize);
  EXPECT_DOUBLE_EQ(spec.analysis.horizon.in_micros(), 250.0);
  EXPECT_TRUE(spec.analysis.simulate);
  EXPECT_EQ(spec.analysis.seed, 9u);
  EXPECT_EQ(spec.analysis.queue_capacity, 2u);
}

TEST(ParseSpec, CommentsAndBlankLines) {
  const Spec spec = parse_spec(R"(
# a comment
; another comment style

[source]
rate = 10 MiB/s

[node a]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
)");
  EXPECT_EQ(spec.nodes.size(), 1u);
}

TEST(ParseSpec, ErrorsAreLineNumbered) {
  try {
    parse_spec("[source]\nrate = 10 MiB/s\n[node a]\nblok_in = 1 KiB\n");
    FAIL() << "expected throw";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("blok_in"), std::string::npos);
  }
}

TEST(ParseSpec, RejectsStructuralErrors) {
  EXPECT_THROW(parse_spec(""), util::PreconditionError);  // no source
  EXPECT_THROW(parse_spec("[source]\nrate = 10 MiB/s\n"),
               util::PreconditionError);  // no nodes
  EXPECT_THROW(parse_spec("rate = 10\n"), util::PreconditionError);
  EXPECT_THROW(parse_spec("[unknown]\n"), util::PreconditionError);
  EXPECT_THROW(parse_spec("[source\n"), util::PreconditionError);
  EXPECT_THROW(parse_spec("[source]\nrate = 10 MiB/s\n[node]\n"),
               util::PreconditionError);  // unnamed node
  EXPECT_THROW(
      parse_spec("[source]\nrate = 10 MiB/s\nrate = 20 MiB/s\n"),
      util::PreconditionError);  // duplicate key
}

/// The message parse_spec throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)parse_spec(text);
  } catch (const util::PreconditionError& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kNode =
    "[node a]\nblock_in = 1 KiB\ntime_min = 1 us\ntime_max = 2 us\n";

TEST(ParseSpec, ExactKeyTableMessages) {
  // Of several unknown keys, the alphabetically first one is reported,
  // whatever the order they were written in.
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\nzeta = 1\nalpha = 2\n" +
                        std::string(kNode)),
            "spec: line 4: unknown key 'alpha' in [source]");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n[node a]\nblock_in = 1 "
                        "KiB\nwhat = 1\ntime_min = 1 us\ntime_max = 2 us\n"
                        "blok_in = 2\n"),
            "spec: line 8: unknown key 'blok_in' in [node a]");
  // A duplicate key is reported at its later line.
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\nburst = 1 KiB\n"
                        "rate = 20 MiB/s\n" +
                        std::string(kNode)),
            "spec: line 4: duplicate key 'rate'");
  // The duplicate check runs before the unknown-key check.
  EXPECT_EQ(parse_error("[policy]\nbogus = 1\npacketize = true\n"
                        "packetize = false\n"),
            "spec: line 4: duplicate key 'packetize'");
}

TEST(ParseSpec, ExactStructureMessages) {
  EXPECT_EQ(parse_error("\n[source\n"), "spec: line 2: unterminated section");
  EXPECT_EQ(parse_error("# c\nrate = 10\n"),
            "spec: line 2: key/value before any [section]");
  EXPECT_EQ(parse_error("[source]\nrate 10 MiB/s\n"),
            "spec: line 2: expected 'key = value'");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n[sink]\n"),
            "spec: line 3: unknown section [sink]");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n[node\ta]\n"),
            "spec: line 3: unknown section [node\ta]");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n[ node ]\n"),
            "spec: line 3: node sections need a name ([node myname])");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n"),
            "spec: no [node ...] sections");
  EXPECT_EQ(parse_error(kNode), "spec: missing [source] section");
}

TEST(ParseSpec, ExactValueMessages) {
  const std::string node(kNode);
  EXPECT_EQ(parse_error("[source]\nrate = 10 Mbps\n" + node),
            "spec: unknown rate unit 'Mbps' (use B/s, KiB/s, MiB/s, GiB/s)");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\nburst = 3 KB\n" + node),
            "spec: unknown size unit 'KB' (use B, KiB, MiB, GiB)");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n[analysis]\n"
                        "horizon = 1 min\n" +
                        node),
            "spec: unknown duration unit 'min' (use s, ms, us, ns)");
  EXPECT_EQ(parse_error("[source]\nrate = fast MiB/s\n" + node),
            "spec: cannot parse rate number from ''");
  EXPECT_EQ(parse_error("[source]\nrate = 1.2.3 MiB/s\n" + node),
            "spec: cannot parse rate number from '1.2.3'");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n" + node +
                        "volume = 0.5x\n"),
            "spec: cannot parse volume number from '0.5x'");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n" + node +
                        "aggregates = maybe\n"),
            "spec: line 3: expected a boolean, got 'maybe'");
  EXPECT_EQ(parse_error("[source]\nrate = 10 MiB/s\n" + node +
                        "kind = fpga\n"),
            "spec: line 3: unknown node kind 'fpga' (use compute, network, "
            "pcie)");
}

TEST(ParseSpec, SeedAndQueueCapacityAreIntegersInRange) {
  const std::string head = "[source]\nrate = 10 MiB/s\n" + std::string(kNode) +
                           "[analysis]\nsimulate = true\n";
  const auto analysis = [&](const std::string& line) {
    return parse_spec(head + line + "\n").analysis;
  };
  EXPECT_EQ(analysis("seed = 42").seed, 42u);
  EXPECT_EQ(analysis("seed = 0").seed, 0u);
  EXPECT_EQ(analysis("seed = 1e3").seed, 1000u);
  EXPECT_EQ(analysis("seed = 4.0").seed, 4u);
  EXPECT_EQ(analysis("queue_capacity = 4").queue_capacity, 4u);
  EXPECT_EQ(analysis("queue_capacity = 1").queue_capacity, 1u);
  for (const char* bad : {"nan", "inf", "-inf", "-1", "2.5", "1e30",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_error(head + "seed = " + bad + "\n"),
              std::string("spec: line 9: seed must be an integer in [0, "
                          "2^64), got '") +
                  bad + "'");
  }
  for (const char* bad : {"nan", "inf", "-1", "0", "0.5", "1e30"}) {
    EXPECT_EQ(parse_error(head + "queue_capacity = " + bad + "\n"),
              std::string("spec: line 9: queue_capacity must be an integer "
                          "in [1, 2^64), got '") +
                  bad + "'");
  }
  // The lenient parser of `streamcalc lint` rejects them too.
  EXPECT_THROW(parse_spec_lenient(head + "seed = -1\n"),
               util::PreconditionError);
}

TEST(ParseSpec, ExactTopologyMessages) {
  const std::string head = "[source]\nrate = 10 MiB/s\n" + std::string(kNode);
  EXPECT_EQ(parse_error(head + "[topology]\nentry = a\nedge = a b 1.0\n"),
            "spec: line 9: unknown node 'b'");
  EXPECT_EQ(parse_error(head + "[topology]\nentry = ghost 1.0\n"),
            "spec: line 8: unknown node 'ghost'");
  EXPECT_EQ(parse_error(head + "[topology]\nedge = a\n"),
            "spec: line 8: edge expects '<from> <to> [fraction]'");
  EXPECT_EQ(parse_error(head + "[topology]\nnode = a\n"),
            "spec: line 8: [topology] accepts only 'edge' and 'entry' keys");
  EXPECT_EQ(parse_error(head + "[topology]\nentry = a 1.0 x\n"),
            "spec: line 8: entry expects '<node> [fraction]'");
  EXPECT_EQ(parse_error(head + "[topology]\nentry = a\nedge = a a 1 2\n"),
            "spec: line 9: edge expects '<from> <to> [fraction]'");
  EXPECT_EQ(parse_error(head + "[topology]\nentry = a 0.6oops\n"),
            "spec: line 8: cannot parse fraction number from '0.6oops'");
  EXPECT_EQ(parse_error(head + "compression = 1.0 2.2\n"),
            "spec: line 7: compression expects three ratios 'min avg max'");
  EXPECT_EQ(parse_error(head + "compression = 1.0 2.2 5.3x\n"),
            "spec: line 7: cannot parse compression number from '5.3x'");
}

TEST(ParseSpec, TrailingJunkOnAnyValueIsAnError) {
  // Every value of the real specs, with a seeded junk word glued to it or
  // appended after a space, must fail to parse with a spec: message: the
  // format promises that a typo is an error, not a silently different
  // value. Junk is never numeric, so it cannot be read as an optional
  // edge fraction.
  static const char* const kJunk[] = {"oops", "x", " oops", " extra words",
                                      "\tjunk", "#", " #"};
  util::Xoshiro256 rng(0x7a11);
  int values = 0;
  for (const std::vector<std::string>& lines : real_spec_lines()) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find(" = ") == std::string::npos) continue;
      std::vector<std::string> mutant = lines;
      mutant[i] += kJunk[rng() % std::size(kJunk)];
      std::string text;
      for (const std::string& line : mutant) text += line + "\n";
      ++values;
      try {
        (void)parse_spec(text);
        ADD_FAILURE() << "accepted '" << mutant[i] << "'";
      } catch (const util::PreconditionError& e) {
        EXPECT_EQ(std::string(e.what()).rfind("spec: ", 0), 0u) << e.what();
      }
    }
  }
  EXPECT_GE(values, 300);
}

TEST(ParseSpec, RatesRequireAllThree) {
  EXPECT_THROW(parse_spec(R"(
[source]
rate = 10 MiB/s
[node a]
block_in = 1 KiB
rate_min = 100 MiB/s
)"),
               util::PreconditionError);
}

TEST(ParseSpec, FiniteJob) {
  const Spec spec = parse_spec(R"(
[source]
rate = 10 MiB/s
job = 25 MiB
[node a]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
)");
  EXPECT_DOUBLE_EQ(spec.source.job_volume.in_mib(), 25.0);
}


TEST(ParseSpec, TopologyBuildsDag) {
  const Spec spec = parse_spec(R"(
[source]
rate = 100 MiB/s
packet = 64 KiB
[node a]
block_in = 64 KiB
time_min = 1 us
time_max = 2 us
[node b]
block_in = 64 KiB
time_min = 1 us
time_max = 2 us
[node c]
block_in = 64 KiB
time_min = 1 us
time_max = 2 us
[topology]
entry = a 1.0
edge = a b 0.7
edge = a c 0.3
)");
  ASSERT_TRUE(spec.is_dag());
  const netcalc::DagSpec d = spec.dag();
  ASSERT_EQ(d.edges.size(), 2u);
  EXPECT_EQ(d.edges[0].from, 0u);
  EXPECT_EQ(d.edges[0].to, 1u);
  EXPECT_DOUBLE_EQ(d.edges[0].fraction, 0.7);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].to, 0u);
}

TEST(ParseSpec, TopologyRejectsUnknownNodesAndKeys) {
  EXPECT_THROW(parse_spec(R"(
[source]
rate = 10 MiB/s
[node a]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
[topology]
entry = a
edge = a nosuch 1.0
)"),
               util::PreconditionError);
  EXPECT_THROW(parse_spec(R"(
[source]
rate = 10 MiB/s
[node a]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
[topology]
vertex = a
)"),
               util::PreconditionError);
}

TEST(ParseSpec, TopologyValidatedEagerly) {
  // A cycle in the spec fails at parse time.
  EXPECT_THROW(parse_spec(R"(
[source]
rate = 10 MiB/s
[node a]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
[node b]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
[topology]
entry = a
edge = a b 1.0
edge = b a 1.0
)"),
               util::PreconditionError);
}

TEST(ParseSpec, TopologyRejectsStochasticSourceKeys) {
  // DAG stochastic bounds ignore [source] model/users, so a DAG spec that
  // declares them is an error rather than a silently different analysis.
  const std::string dag_tail = R"(
[node a]
block_in = 1 KiB
time_min = 1 us
time_max = 2 us
[topology]
entry = a 1.0
)";
  const std::string source = "[source]\nrate = 10 MiB/s\npacket = 1 KiB\n";
  EXPECT_NO_THROW(parse_spec(source + dag_tail));
  for (const std::string extra :
       {"model = onoff\npeak = 1 MiB/s\nmean_on = 1 ms\nmean_off = 1 ms\n",
        "model = leaky\n", "users = 20\n"}) {
    try {
      parse_spec(source + extra + dag_tail);
      ADD_FAILURE() << "accepted a DAG spec with " << extra;
    } catch (const util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("chain specs only"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseSpec, FuzzNeverCrashes) {
  // Random garbage must throw PreconditionError (or parse), never crash.
  util::Xoshiro256 rng(4242);
  const std::string alphabet =
      "[]=abcdefgh 0123456789.\n#;MiB/sKiB uszx";
  for (int iter = 0; iter < 300; ++iter) {
    std::string text;
    const std::size_t len = rng() % 200;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng() % alphabet.size()]);
    }
    try {
      (void)parse_spec(text);
    } catch (const util::PreconditionError&) {
      // expected for malformed input
    }
  }

  // Seeded mutants of the real specs. One that parses goes through the
  // analyze, certify, stoch and lint drivers, which must each return their
  // exit code: the CLI has no top-level catch, so an escaping exception
  // would be a crash.
  const std::vector<std::vector<std::string>> specs = real_spec_lines();
  ASSERT_EQ(specs.size(), 9u);
  Options opts;
  opts.paths = {::testing::TempDir() + "/spec_fuzz_mutant.scspec"};
  for (int iter = 0; iter < 600; ++iter) {
    const std::string text = mutate(specs[rng() % specs.size()], rng);
    try {
      (void)parse_spec(text);
    } catch (const util::PreconditionError&) {
      continue;
    }
    std::ofstream(opts.paths.front()) << text;
    int analyze = -1, certify = -1, stoch = -1, lint = -1;
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    EXPECT_NO_THROW({
      analyze = run_analyze(opts);
      certify = run_certify(opts.paths, opts);
      stoch = run_stoch(opts);
      lint = run_lint(opts.paths, opts);
    }) << "mutant " << iter << ":\n" << text;
    const std::string out = ::testing::internal::GetCapturedStdout() +
                            ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(analyze == 0 || analyze == 1) << iter << ": " << out;
    EXPECT_TRUE(certify >= 0 && certify <= 2) << iter << ": " << out;
    EXPECT_TRUE(stoch == 0 || stoch == 1) << iter << ": " << out;
    EXPECT_TRUE(lint >= 0 && lint <= 2) << iter << ": " << out;
  }
  std::filesystem::remove(opts.paths.front());
}

}  // namespace
}  // namespace streamcalc::cli
