// The util/json module: parser, dumper and the shared json_quote /
// json_number primitives, plus a check that every JSON document the
// repository writes parses with json_parse — the CLI --json reports,
// srclint --json, --stats (Registry::json), --trace (chrome_trace_json)
// and the bench --json result files.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.hpp"
#include "cli/certify.hpp"
#include "cli/lint.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "srclint/runner.hpp"
#include "util/rng.hpp"

namespace streamcalc::util {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf00dULL;

// --- parser and dumper --------------------------------------------------

TEST(JsonTest, ParsesScalarsAndContainers) {
  EXPECT_TRUE(json_parse("null").value.is_null());
  EXPECT_EQ(json_parse("true").value.as_bool(), true);
  EXPECT_DOUBLE_EQ(json_parse("-12.5e2").value.as_number(), -1250.0);
  EXPECT_EQ(json_parse("\"a\\nb\\u0041\"").value.as_string(), "a\nbA");
  const Json arr = json_parse("[1, [2, 3], {\"k\": 4}]").value;
  ASSERT_TRUE(arr.is_array());
  EXPECT_EQ(arr.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(arr.as_array()[2].find("k")->as_number(), 4.0);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "}", "[1,]", "{\"a\":}", "{\"a\" 1}", "nul", "truex",
        "\"unterminated", "\"bad \\q escape\"", "01", "1e", "--1",
        "{\"a\":1} trailing", "\"\\ud800\"", "[1 2]", "{1: 2}"}) {
    const JsonParseResult r = json_parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(json_parse(deep).ok());
}

TEST(JsonTest, RejectsOutOfRangeNumbersAtTheToken) {
  for (const auto& [text, offset] :
       {std::pair<const char*, std::size_t>{"1e400", 0},
        {"[1, -1e400]", 4},
        {"{\"rate\": 2e308}", 9}}) {
    const JsonParseResult r = json_parse(text);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.error, "number out of range") << text;
    EXPECT_EQ(r.offset, offset) << text;
  }
  // Underflow is not out of range: it rounds toward zero.
  EXPECT_TRUE(json_parse("1e-400").ok());
  EXPECT_DOUBLE_EQ(json_parse("1.7976931348623157e308").value.as_number(),
                   1.7976931348623157e308);
}

TEST(JsonTest, QuoteEscapesEveryControlCharacter) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("\n\t\r\b\f"), "\"\\n\\t\\r\\b\\f\"");
  EXPECT_EQ(json_quote(std::string("\x01\x1f\0", 3)),
            "\"\\u0001\\u001f\\u0000\"");
  for (int c = 0; c < 0x20; ++c) {
    const std::string s(1, static_cast<char>(c));
    const JsonParseResult r = json_parse(json_quote(s));
    ASSERT_TRUE(r.ok()) << c;
    EXPECT_EQ(r.value.as_string(), s) << c;
  }
}

TEST(JsonTest, NumberIsRoundTripOrNull) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-300}) {
    EXPECT_EQ(json_parse(json_number(v)).value.as_number(), v);
  }
}

Json random_json(util::Xoshiro256& rng, int depth) {
  switch (depth <= 0 ? rng() % 4 : rng() % 6) {
    case 0:
      return Json();
    case 1:
      return Json(rng() % 2 == 0);
    case 2: {
      // Mix of integral and fractional magnitudes.
      const double mag = static_cast<double>(rng() % (1u << 20));
      return Json(rng() % 2 == 0 ? mag : mag / 1024.0);
    }
    case 3: {
      std::string s(rng() % 12, '\0');
      for (char& c : s) c = static_cast<char>(rng() % 256);
      return Json(s);
    }
    case 4: {
      Json::Array a(rng() % 4);
      for (Json& v : a) v = random_json(rng, depth - 1);
      return Json(std::move(a));
    }
    default: {
      Json::Object o;
      const std::uint64_t n = rng() % 4;
      for (std::uint64_t i = 0; i < n; ++i) {
        // Appended rather than "k" + std::to_string(...): GCC 12 at -O3
        // raises a false -Werror=restrict on that operator+ overload.
        std::string key = "k";
        key += std::to_string(rng() % 8);
        o[key] = random_json(rng, depth - 1);
      }
      return Json(std::move(o));
    }
  }
}

TEST(JsonTest, FuzzDumpParseRoundTrip) {
  util::Xoshiro256 rng(kSeed ^ 0xa5a5);
  for (int i = 0; i < 500; ++i) {
    const Json value = random_json(rng, 4);
    const std::string text = value.dump();
    const JsonParseResult parsed = json_parse(text);
    ASSERT_TRUE(parsed.ok())
        << "case " << i << ": " << parsed.error << " in " << text;
    EXPECT_TRUE(parsed.value == value) << "case " << i << ": " << text;
    // Deterministic serialization: dump(parse(dump(v))) == dump(v).
    EXPECT_EQ(parsed.value.dump(), text) << "case " << i;
  }
}

// --- every document the repository writes parses -------------------------

std::string example_spec(const std::string& name) {
  return std::string(SC_SPEC_DIR) + "/" + name;
}

cli::Spec load_spec(const std::string& name) {
  std::ifstream in(example_spec(name));
  std::ostringstream ss;
  ss << in.rdbuf();
  return cli::parse_spec(ss.str());
}

Json parse_ok(const std::string& text) {
  const JsonParseResult r = json_parse(text);
  EXPECT_TRUE(r.ok()) << r.error << " at byte " << r.offset << " in:\n"
                      << text;
  return r.value;
}

TEST(JsonDocuments, ChainReportParses) {
  const cli::Spec spec = load_spec("quickstart.scspec");
  const Json plain = parse_ok(cli::run_report_json(spec, Context{}));
  EXPECT_EQ(plain.string_or("kind", ""), "chain");
  ASSERT_NE(plain.find("bounds"), nullptr);
  EXPECT_GT(plain.find("bounds")->number_or("delay_seconds", 0.0), 0.0);
  EXPECT_EQ(plain.find("stochastic"), nullptr);
  ASSERT_NE(plain.find("per_node"), nullptr);
  EXPECT_EQ(plain.find("per_node")->as_array().size(), spec.nodes.size());

  const Json eps = parse_ok(cli::run_report_json(spec, Context{}, 1e-6));
  ASSERT_NE(eps.find("stochastic"), nullptr);
  EXPECT_EQ(eps.find("stochastic")->number_or("epsilon", 0.0), 1e-6);
  EXPECT_EQ(eps.find("stochastic")->string_or("kind", ""), "violation_prob");
}

TEST(JsonDocuments, DagReportParses) {
  const cli::Spec spec = load_spec("fork_join.scspec");
  ASSERT_TRUE(spec.is_dag());
  const Json plain = parse_ok(cli::run_report_json(spec, Context{}));
  EXPECT_EQ(plain.string_or("kind", ""), "dag");
  EXPECT_EQ(plain.number_or("nodes", 0.0),
            static_cast<double>(spec.nodes.size()));
  ASSERT_NE(plain.find("paths"), nullptr);
  EXPECT_FALSE(plain.find("paths")->as_array().empty());

  const Json eps = parse_ok(cli::run_report_json(spec, Context{}, 1e-3));
  ASSERT_NE(eps.find("stochastic"), nullptr);
  EXPECT_EQ(eps.find("stochastic")->number_or("epsilon", 0.0), 1e-3);
}

TEST(JsonDocuments, StochReportParses) {
  const Json doc = parse_ok(cli::run_stoch_report(
      load_spec("onoff_users.scspec"), 1e-6, /*json=*/true));
  EXPECT_EQ(doc.string_or("kind", ""), "stoch");
  ASSERT_NE(doc.find("stochastic"), nullptr);
  EXPECT_GT(doc.find("stochastic")->number_or("delay_seconds", 0.0), 0.0);
  ASSERT_NE(doc.find("worst_case"), nullptr);
}

TEST(JsonDocuments, LintAndCertifyReportsParse) {
  cli::Options opts;
  opts.json = true;
  const std::vector<std::string> paths = {example_spec("quickstart.scspec"),
                                          "/nonexistent/no_such.scspec"};

  ::testing::internal::CaptureStdout();
  const int lint_code = cli::run_lint(paths, opts);
  const Json lint = parse_ok(::testing::internal::GetCapturedStdout());
  EXPECT_EQ(lint.string_or("command", ""), "lint");
  EXPECT_EQ(lint.number_or("exit_code", -1.0), lint_code);
  ASSERT_NE(lint.find("files"), nullptr);
  ASSERT_EQ(lint.find("files")->as_array().size(), 2u);
  EXPECT_EQ(lint.find("files")->as_array()[1].string_or("status", ""),
            "unreadable");

  ::testing::internal::CaptureStdout();
  const int certify_code = cli::run_certify(paths, opts);
  const Json certify = parse_ok(::testing::internal::GetCapturedStdout());
  EXPECT_EQ(certify.string_or("command", ""), "certify");
  EXPECT_EQ(certify.number_or("exit_code", -1.0), certify_code);
  ASSERT_NE(certify.find("files"), nullptr);
  EXPECT_EQ(certify.find("files")->as_array()[0].string_or("status", ""),
            "certified");
}

TEST(JsonDocuments, SrclintReportParses) {
  const std::string path =
      std::filesystem::path(::testing::TempDir() + "/json_srclint.cpp")
          .lexically_normal()
          .generic_string();
  {
    std::ofstream out(path);
    out << "const char* v = std::getenv(\"HOME\");\n";
  }
  std::ostringstream out;
  std::ostringstream err;
  const int code = srclint::run_srclint_cli({"--json", path}, out, err);
  const Json doc = parse_ok(out.str());
  EXPECT_EQ(doc.string_or("command", ""), "srclint");
  EXPECT_EQ(doc.number_or("exit_code", -1.0), code);
  ASSERT_NE(doc.find("findings"), nullptr);
  ASSERT_FALSE(doc.find("findings")->as_array().empty());
  EXPECT_EQ(doc.find("findings")->as_array()[0].string_or("code", ""),
            "SC902");
  std::filesystem::remove(path);
}

TEST(JsonDocuments, MetricsWithHostileNamesAndNaNParse) {
  obs::Registry reg;
  const std::string hostile = "a\"b\\c\n\x01";
  reg.counter(hostile).add(3);
  reg.gauge("nan_gauge").set(std::nan(""));
  reg.gauge("inf_gauge").set(std::numeric_limits<double>::infinity());
  reg.histogram("latency_us").observe(5.0);
  const Json doc = parse_ok(reg.json());
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_EQ(doc.find("counters")->number_or(hostile, 0.0), 3.0);
  ASSERT_NE(doc.find("gauges"), nullptr);
  ASSERT_NE(doc.find("gauges")->find("nan_gauge"), nullptr);
  EXPECT_TRUE(doc.find("gauges")->find("nan_gauge")->is_null());
  EXPECT_TRUE(doc.find("gauges")->find("inf_gauge")->is_null());
  ASSERT_NE(doc.find("histograms"), nullptr);
  EXPECT_EQ(
      doc.find("histograms")->find("latency_us")->number_or("count", 0.0),
      1.0);
}

TEST(JsonDocuments, ChromeTraceWithLongNamesParses) {
  const std::string long_name = std::string(320, 'x') + "\"quoted\"";
  obs::Tracer tracer;
  obs::SpanRecord r;
  r.category = "test";
  r.name = long_name.c_str();
  r.start_ns = 1234567891;
  r.end_ns = 1234569000;
  r.thread = 7;
  r.depth = 2;
  tracer.record(r);
  tracer.record(r);
  const Json doc = parse_ok(tracer.chrome_trace_json());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  const Json::Array& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].string_or("name", ""), long_name);
  EXPECT_EQ(events[0].string_or("cat", ""), "test");
  EXPECT_DOUBLE_EQ(events[0].number_or("ts", 0.0), 1234567.891);
  EXPECT_DOUBLE_EQ(events[0].number_or("dur", 0.0), 1.109);
  EXPECT_EQ(events[0].number_or("tid", 0.0), 7.0);
  EXPECT_EQ(events[0].find("args")->number_or("depth", 0.0), 2.0);
}

TEST(JsonDocuments, BenchReportWithNaNRowParses) {
  const std::string path = ::testing::TempDir() + "/json_bench_report.json";
  bench::JsonReport report;
  report.add("BM_Fine/8", 12.5, "ns");
  report.add("BM_\"Odd\"\tName", std::nan(""), "ns");
  ASSERT_TRUE(report.write(path));
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const Json doc = parse_ok(ss.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_GE(doc.as_array().size(), 2u);
  EXPECT_EQ(doc.as_array()[0].string_or("name", ""), "BM_Fine/8");
  EXPECT_EQ(doc.as_array()[0].number_or("value", 0.0), 12.5);
  EXPECT_EQ(doc.as_array()[1].string_or("name", ""), "BM_\"Odd\"\tName");
  EXPECT_TRUE(doc.as_array()[1].find("value")->is_null());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamcalc::util
