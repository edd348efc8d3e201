// Exit-code contract for `streamcalc lint` and `streamcalc certify`:
//   0  every file clean / every bound certified,
//   1  unreadable or unparseable input (takes precedence),
//   2  readable input with defects.
// Historically lint conflated 1 and 2; these tests pin the split.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "cli/certify.hpp"
#include "cli/lint.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "cli/spec.hpp"
#include "serve/catalog.hpp"
#include "serve/run.hpp"
#include "serve/server.hpp"
#include "srclint/runner.hpp"
#include "util/context.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace streamcalc::cli {
namespace {

std::string example_spec(const std::string& name) {
  return std::string(SC_SPEC_DIR) + "/" + name;
}

std::string fixture_spec(const std::string& name) {
  return std::string(SC_LINT_SPEC_DIR) + "/" + name;
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "/exit_codes_" + name + ".scspec";
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(LintExitCodes, CleanSpecsExitZero) {
  EXPECT_EQ(run_lint({example_spec("quickstart.scspec"),
                      example_spec("bitw.scspec")}, Options{}),
            0);
}

TEST(LintExitCodes, DefectsExitTwo) {
  EXPECT_EQ(run_lint({fixture_spec("blast_unstable.scspec")}, Options{}), 2);
  // Mixing clean and defective files still reports defects.
  EXPECT_EQ(run_lint({example_spec("quickstart.scspec"),
                      fixture_spec("bitw_noncausal.scspec")}, Options{}),
            2);
}

TEST(LintExitCodes, UnreadableFileExitsOne) {
  EXPECT_EQ(run_lint({"/nonexistent/no_such.scspec"}, Options{}), 1);
}

TEST(LintExitCodes, UnparseableSpecExitsOne) {
  const std::string bogus = write_temp("bogus", "this is not a spec\n");
  EXPECT_EQ(run_lint({bogus}, Options{}), 1);
  std::remove(bogus.c_str());
}

TEST(LintExitCodes, ParseFailureTakesPrecedenceOverDefects) {
  EXPECT_EQ(run_lint({fixture_spec("blast_unstable.scspec"),
                      "/nonexistent/no_such.scspec"}, Options{}),
            1);
}

TEST(CertifyExitCodes, CleanSpecsCertifyWithExitZero) {
  EXPECT_EQ(run_certify({example_spec("quickstart.scspec"),
                         example_spec("bitw.scspec"),
                         example_spec("fork_join.scspec")}, Options{}),
            0);
}

TEST(CertifyExitCodes, OverloadedButSoundSpecCertifiesItsInfiniteBounds) {
  // Instability is a property of the model, not a certification defect:
  // the divergent bounds are re-established definitionally.
  EXPECT_EQ(run_certify({fixture_spec("blast_unstable.scspec")}, Options{}),
            0);
}

TEST(CertifyExitCodes, LintErrorsBlockCertificationWithExitTwo) {
  EXPECT_EQ(run_certify({fixture_spec("blast_noncausal.scspec")}, Options{}),
            2);
}

TEST(CertifyExitCodes, UnreadableAndUnparseableExitOne) {
  EXPECT_EQ(run_certify({"/nonexistent/no_such.scspec"}, Options{}), 1);
  const std::string bogus = write_temp("certify_bogus", "[nope\n");
  EXPECT_EQ(run_certify({bogus}, Options{}), 1);
  std::remove(bogus.c_str());
  // Parse failures take precedence over defects here too.
  EXPECT_EQ(run_certify({fixture_spec("blast_noncausal.scspec"),
                         "/nonexistent/no_such.scspec"}, Options{}),
            1);
}

// --- serve: same uniform contract (0 clean, 1 bad input/bind, 3 usage) --

ParseResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"streamcalc"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ServeCli, HelpParsesCleanly) {
  const ParseResult r = parse({"serve", "--help"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.options.help);
  EXPECT_EQ(r.options.command, "serve");
  // The help table documents the serve endpoint flags.
  EXPECT_NE(help_text("streamcalc").find("--socket"), std::string::npos);
}

TEST(ServeCli, UsageErrorsAreParseErrors) {
  // Missing endpoint entirely.
  EXPECT_FALSE(parse({"serve", "spec.scspec"}).ok());
  // Both endpoint kinds at once.
  EXPECT_FALSE(
      parse({"serve", "--socket", "/tmp/x", "--port", "0", "spec"}).ok());
  // Endpoint flags on a non-serve subcommand.
  EXPECT_FALSE(parse({"lint", "--socket", "/tmp/x", "spec"}).ok());
  EXPECT_FALSE(parse({"analyze", "--port", "80", "spec"}).ok());
  // No catalog specs.
  EXPECT_FALSE(parse({"serve", "--socket", "/tmp/x"}).ok());
  // Malformed port.
  EXPECT_FALSE(parse({"serve", "--port", "99999", "spec"}).ok());
  EXPECT_FALSE(parse({"serve", "--port", "eighty", "spec"}).ok());
  // Flags missing their values.
  EXPECT_FALSE(parse({"serve", "--socket"}).ok());
  EXPECT_FALSE(parse({"serve", "--port"}).ok());
}

TEST(ServeCli, ValidInvocationsParse) {
  const ParseResult s = parse({"serve", "--socket", "/tmp/x.sock", "a", "b"});
  ASSERT_TRUE(s.ok()) << s.error;
  EXPECT_EQ(s.options.socket_path, "/tmp/x.sock");
  EXPECT_EQ(s.options.paths.size(), 2u);

  const ParseResult p = parse({"serve", "--port", "0", "a"});
  ASSERT_TRUE(p.ok()) << p.error;
  EXPECT_EQ(p.options.port, 0);
}

Options serve_options(const std::string& socket,
                      const std::vector<std::string>& specs) {
  Options opts;
  opts.command = "serve";
  opts.socket_path = socket;
  opts.paths = specs;
  return opts;
}

TEST(ServeExitCodes, UnbindableSocketPathExitsOne) {
  EXPECT_EQ(serve::run_serve(serve_options("/nonexistent_dir/daemon.sock",
                                    {example_spec("quickstart.scspec")})),
            1);
}

TEST(ServeExitCodes, UnreadableCatalogExitsOne) {
  const std::string sock = ::testing::TempDir() + "/serve_exit_cat.sock";
  EXPECT_EQ(serve::run_serve(serve_options(sock, {"/nonexistent/no_such.scspec"})),
            1);
  EXPECT_EQ(
      serve::run_serve(serve_options(
          sock, {fixture_spec("blast_unstable.scspec"), "/nonexistent/x"})),
      1);
}

TEST(ServeExitCodes, UnparseableCatalogExitsOne) {
  const std::string bogus = write_temp("serve_bogus", "not a spec\n");
  EXPECT_EQ(serve::run_serve(serve_options(
                ::testing::TempDir() + "/serve_exit_parse.sock", {bogus})),
            1);
  std::remove(bogus.c_str());
}

TEST(ServeExitCodes, DuplicateBindExitsOne) {
  const std::string sock = ::testing::TempDir() + "/serve_exit_dup.sock";
  serve::ServerConfig config;
  config.socket_path = sock;
  config.spec_paths = {example_spec("quickstart.scspec")};
  serve::Server first(config);
  first.start();
  // A second daemon on the same endpoint must fail fast with exit 1
  // (and must not steal or unlink the live socket).
  EXPECT_EQ(
      serve::run_serve(serve_options(sock, {example_spec("quickstart.scspec")})),
      1);
  first.stop();
}

// --- stoch / analyze --epsilon: usage errors are parse errors (exit 3);
// --- a parseable but out-of-range epsilon is a semantic error (exit 1) --

Options stoch_options(const std::string& path, double epsilon = -1.0) {
  Options opts;
  opts.command = "stoch";
  opts.paths = {path};
  opts.epsilon = epsilon;
  return opts;
}

TEST(StochCli, HelpDocumentsEpsilon) {
  const ParseResult r = parse({"stoch", "--help"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.options.help);
  EXPECT_EQ(r.options.command, "stoch");
  EXPECT_NE(help_text("streamcalc").find("--epsilon"), std::string::npos);
  EXPECT_NE(help_text("streamcalc").find("stoch"), std::string::npos);
}

TEST(StochCli, UsageErrorsAreParseErrors) {
  // Missing spec path.
  EXPECT_FALSE(parse({"stoch"}).ok());
  // More than one spec path.
  EXPECT_FALSE(parse({"stoch", "a.scspec", "b.scspec"}).ok());
  // --epsilon missing its value.
  EXPECT_FALSE(parse({"stoch", "--epsilon"}).ok());
  EXPECT_FALSE(parse({"analyze", "--epsilon"}).ok());
  // --epsilon with a non-numeric value.
  EXPECT_FALSE(parse({"stoch", "--epsilon", "tiny", "spec"}).ok());
  // --epsilon on subcommands that have no stochastic path.
  EXPECT_FALSE(parse({"lint", "--epsilon", "0.1", "spec"}).ok());
  EXPECT_FALSE(parse({"certify", "--epsilon", "0.1", "spec"}).ok());
  EXPECT_FALSE(parse({"serve", "--epsilon", "0.1", "--port", "0", "s"}).ok());
}

TEST(StochCli, EpsilonValuesParseWithoutRangeChecking) {
  // The parser forwards the number verbatim; range validation lives in
  // the bounds layer (exit 1), not the flag parser (exit 3).
  const ParseResult r = parse({"stoch", "--epsilon", "1.5", "spec"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options.epsilon, 1.5);
  const ParseResult a = parse({"analyze", "--epsilon", "1e-9", "spec"});
  ASSERT_TRUE(a.ok()) << a.error;
  EXPECT_EQ(a.options.epsilon, 1e-9);
}

TEST(StochExitCodes, CleanChainSpecExitsZero) {
  EXPECT_EQ(run_stoch(stoch_options(example_spec("quickstart.scspec"))), 0);
  EXPECT_EQ(run_stoch(stoch_options(example_spec("quickstart.scspec"), 1e-3)),
            0);
  // The shipped explicit-[source] spec exercises the on/off Chernoff path.
  EXPECT_EQ(run_stoch(stoch_options(example_spec("onoff_users.scspec"))), 0);
  Options analyze = stoch_options(example_spec("quickstart.scspec"), 1e-6);
  analyze.command = "analyze";
  EXPECT_EQ(run_analyze(analyze), 0);
}

TEST(StochExitCodes, SpecStochasticBoundsNeverExceedTheSureBounds) {
  // A spec's [source] rate/burst is a shaping contract the traffic also
  // satisfies, so the report clamps explicit-model stochastic bounds by
  // the deterministic ones: for onoff_users.scspec (where the Chernoff
  // bound at 1e-6 is looser than the sure bound) the rendered stochastic
  // column must fall back to det_clamp, with the pure-MGF multiplexing
  // sweep still present. `analyze --epsilon` applies the same clamp in
  // text and in JSON.
  std::ifstream in(example_spec("onoff_users.scspec"));
  std::stringstream buf;
  buf << in.rdbuf();
  const Spec spec = parse_spec(buf.str());
  const std::string text = run_stoch_report(spec, 1e-6, /*json=*/false);
  EXPECT_NE(text.find("det_clamp"), std::string::npos) << text;
  EXPECT_NE(text.find("aggregation scaling"), std::string::npos) << text;

  const std::string analyze = run_report(spec, util::Context{}, 1e-6);
  EXPECT_NE(analyze.find("delay    d <= 23.9 ms  [det_clamp]"),
            std::string::npos)
      << analyze;

  const util::JsonParseResult doc =
      util::json_parse(run_report_json(spec, util::Context{}, 1e-6));
  ASSERT_TRUE(doc.ok()) << doc.error;
  const util::Json* sure = doc.value.find("bounds");
  const util::Json* stoch = doc.value.find("stochastic");
  ASSERT_NE(sure, nullptr);
  ASSERT_NE(stoch, nullptr);
  for (const char* quantity : {"delay", "backlog"}) {
    const std::string q(quantity);
    const std::string key = q + (q == "delay" ? "_seconds" : "_bytes");
    EXPECT_EQ(stoch->string_or(q + "_method", ""), "det_clamp") << q;
    EXPECT_LE(stoch->number_or(key, -1.0), sure->number_or(key, -2.0)) << q;
  }
}

/// quickstart.scspec's chain (without its simulation) under an explicit
/// [source] model given by `model_lines`.
std::string model_chain_spec(const std::string& model_lines) {
  return "[source]\nrate = 100 MiB/s\nburst = 256 KiB\npacket = 64 KiB\n" +
         model_lines +
         "[node parse]\nblock_in = 64 KiB\nrate_min = 220 MiB/s\n"
         "rate_avg = 250 MiB/s\nrate_max = 280 MiB/s\n"
         "[node transform]\nblock_in = 64 KiB\nrate_min = 120 MiB/s\n"
         "rate_avg = 140 MiB/s\nrate_max = 165 MiB/s\n"
         "[node uplink]\nkind = network\nbandwidth = 1 GiB/s\n"
         "packet = 64 KiB\npropagation = 50 us\n";
}

/// `finite` and at most `sure` for the delay and backlog of two JSON
/// bound objects.
void expect_within_sure(const util::Json& stoch, const util::Json& sure,
                        const std::string& what) {
  for (const char* key : {"delay_seconds", "backlog_bytes"}) {
    const double s = stoch.number_or(key, -1.0);
    EXPECT_TRUE(std::isfinite(s) && s > 0.0) << what << " " << key;
    EXPECT_LE(s, sure.number_or(key, -2.0)) << what << " " << key;
  }
}

/// Runs a chain under the explicit [source] model `model_lines` through
/// `analyze --epsilon 1e-6` and `stoch` (both exit 0, both naming the
/// source `label`) and checks the JSON reports of both: finite stochastic
/// bounds no looser than the sure bounds.
void expect_source_model_end_to_end(const std::string& name,
                                    const std::string& model_lines,
                                    const std::string& label) {
  const std::string text = model_chain_spec(model_lines);
  const std::string path = write_temp(name, text);
  Options analyze = stoch_options(path, 1e-6);
  analyze.command = "analyze";
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_analyze(analyze), 0);
  const std::string analyze_out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(analyze_out.find("(source " + label + "):"), std::string::npos)
      << analyze_out;
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_stoch(stoch_options(path, 1e-6)), 0);
  const std::string stoch_out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(stoch_out.find("stages, source " + label + "\n"),
            std::string::npos)
      << stoch_out;
  std::remove(path.c_str());

  const Spec spec = parse_spec(text);
  const util::JsonParseResult report =
      util::json_parse(run_report_json(spec, util::Context{}, 1e-6));
  ASSERT_TRUE(report.ok()) << report.error;
  const util::Json* sure = report.value.find("bounds");
  const util::Json* stoch = report.value.find("stochastic");
  ASSERT_NE(sure, nullptr);
  ASSERT_NE(stoch, nullptr);
  expect_within_sure(*stoch, *sure, "analyze");

  const util::JsonParseResult tier =
      util::json_parse(run_stoch_report(spec, 1e-6, /*json=*/true));
  ASSERT_TRUE(tier.ok()) << tier.error;
  EXPECT_EQ(tier.value.string_or("source_model", ""), spec.stoch_source.model);
  const util::Json* worst = tier.value.find("worst_case");
  const util::Json* tier_stoch = tier.value.find("stochastic");
  ASSERT_NE(worst, nullptr);
  ASSERT_NE(tier_stoch, nullptr);
  expect_within_sure(*tier_stoch, *worst, "stoch");
}

TEST(StochExitCodes, PoissonSourceModelRunsEndToEnd) {
  // 800 packets/s of 64 KiB: a 50 MiB/s mean against the 120 MiB/s
  // bottleneck.
  expect_source_model_end_to_end("poisson", "model = poisson\nlambda = 800\n",
                                 "poisson");
}

TEST(StochExitCodes, LeakySourceModelRunsEndToEnd) {
  expect_source_model_end_to_end("leaky", "model = leaky\n", "leaky");
}

TEST(StochExitCodes, PoissonSourceWithZeroLambdaExitsOne) {
  const std::string path = write_temp(
      "poisson_zero", model_chain_spec("model = poisson\nlambda = 0\n"));
  Options analyze = stoch_options(path, 1e-6);
  analyze.command = "analyze";
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_analyze(analyze), 1);
  EXPECT_EQ(run_stoch(stoch_options(path, 1e-6)), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("positive lambda"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(StochExitCodes, OutOfRangeEpsilonExitsOne) {
  EXPECT_EQ(run_stoch(stoch_options(example_spec("quickstart.scspec"), 1.5)),
            1);
  EXPECT_EQ(run_stoch(stoch_options(example_spec("quickstart.scspec"), 0.0)),
            1);
  Options analyze = stoch_options(example_spec("quickstart.scspec"), 2.0);
  analyze.command = "analyze";
  EXPECT_EQ(run_analyze(analyze), 1);
}

TEST(StochExitCodes, DagSpecExitsOne) {
  // The stoch report is chain-only (matching serve's epsilon contract).
  EXPECT_EQ(run_stoch(stoch_options(example_spec("fork_join.scspec"))), 1);
}

TEST(AnalyzeExitCodes, UnfedDagNodeFailsValidationInEveryLintSetting) {
  // fork_join.scspec plus a node that no entry and no edge feeds. The spec
  // is rejected as a precondition error naming the node (exit 1) instead
  // of reaching the model's volume propagation.
  std::ifstream in(example_spec("fork_join.scspec"));
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::string topology = "[topology]\n";
  ASSERT_NE(text.find(topology), std::string::npos);
  text.replace(text.find(topology), topology.size(),
               "[node orphan]\nblock_in = 64 KiB\nrate_min = 90 MiB/s\n"
               "rate_avg = 100 MiB/s\nrate_max = 115 MiB/s\n\n" +
                   topology + "edge = orphan mux 1.0\n");
  const std::string path = write_temp("unfed_dag", text);
  for (const util::EnforceMode mode :
       {util::EnforceMode::kWarn, util::EnforceMode::kOff}) {
    Options analyze = stoch_options(path);
    analyze.command = "analyze";
    analyze.json = true;
    analyze.ctx.lint = mode;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_analyze(analyze), 1);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("'orphan' is unreachable"), std::string::npos)
        << err;
    EXPECT_EQ(err.find("internal invariant"), std::string::npos) << err;
  }
  // The serve catalog rejects the spec at (re)load, not at a later admit.
  EXPECT_THROW(serve::make_snapshot(1, {{"unfed", parse_spec(text)}}),
               util::PreconditionError);
  std::remove(path.c_str());
}

TEST(AnalyzeExitCodes, StochasticSourceOnDagExitsOne) {
  // fork_join.scspec plus [source] model/users: analyze --epsilon would
  // ignore them on a DAG, so the spec is rejected at parse time (exit 1).
  std::ifstream in(example_spec("fork_join.scspec"));
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::string source = "[source]\n";
  ASSERT_NE(text.find(source), std::string::npos);
  text.replace(text.find(source), source.size(),
               source + "model = leaky\nusers = 20\n");
  const std::string path = write_temp("stoch_dag", text);
  Options analyze = stoch_options(path, 1e-6);
  analyze.command = "analyze";
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_analyze(analyze), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("chain specs only"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(StochExitCodes, UnreadableAndUnparseableExitOne) {
  EXPECT_EQ(run_stoch(stoch_options("/nonexistent/no_such.scspec")), 1);
  const std::string bogus = write_temp("stoch_bogus", "[nope\n");
  EXPECT_EQ(run_stoch(stoch_options(bogus)), 1);
  std::remove(bogus.c_str());
}

// --- srclint: same uniform contract (0 clean, 1 bad input, 2 findings,
// --- 3 usage), exercised through the library entry point like run_lint --

int run_srclint_args(std::initializer_list<std::string> args,
                     std::string* out_text = nullptr,
                     std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = srclint::run_srclint_cli(std::vector<std::string>(args),
                                            out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

std::string write_cpp(const std::string& name, const std::string& text) {
  // Normalized exactly like srclint's tree walk (TempDir() has a trailing
  // slash, and a doubled separator would break baseline key matching).
  const std::string path =
      std::filesystem::path(::testing::TempDir() + "/exit_codes_" + name +
                            ".cpp")
          .lexically_normal()
          .generic_string();
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(SrclintExitCodes, CleanFileExitsZero) {
  const std::string clean = write_cpp("clean", "int answer() { return 42; }\n");
  EXPECT_EQ(run_srclint_args({clean}), 0);
  std::remove(clean.c_str());
}

TEST(SrclintExitCodes, FindingsExitTwo) {
  // A direct getenv call violates SC902 wherever it appears.
  const std::string dirty = write_cpp(
      "dirty", "const char* v = std::getenv(\"HOME\");\n");
  std::string out;
  EXPECT_EQ(run_srclint_args({dirty}, &out), 2);
  EXPECT_NE(out.find("[SC902]"), std::string::npos) << out;
  // Mixing clean and dirty files still reports findings.
  const std::string clean = write_cpp("also_clean", "int x;\n");
  EXPECT_EQ(run_srclint_args({clean, dirty}), 2);
  std::remove(dirty.c_str());
  std::remove(clean.c_str());
}

TEST(SrclintExitCodes, UnreadablePathExitsOne) {
  std::string err;
  EXPECT_EQ(run_srclint_args({"/nonexistent/no_such_dir"}, nullptr, &err), 1);
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(SrclintExitCodes, UnreadablePathTakesPrecedenceOverFindings) {
  const std::string dirty = write_cpp(
      "precedence", "const char* v = std::getenv(\"HOME\");\n");
  EXPECT_EQ(run_srclint_args({dirty, "/nonexistent/no_such_dir"}), 1);
  std::remove(dirty.c_str());
}

TEST(SrclintExitCodes, MalformedBaselineExitsOne) {
  const std::string dirty = write_cpp("baselined", "auto* v = ::getenv(\"H\");\n");
  const std::string bogus = ::testing::TempDir() + "/exit_codes_bogus.baseline";
  std::ofstream(bogus) << "this is not a key\n";
  std::string err;
  EXPECT_EQ(run_srclint_args({"--baseline", bogus, dirty}, nullptr, &err), 1);
  EXPECT_NE(err.find("expected 'SCxxx path:line'"), std::string::npos) << err;
  std::remove(bogus.c_str());
  std::remove(dirty.c_str());
}

TEST(SrclintExitCodes, BaselineSuppressionRestoresExitZero) {
  const std::string dirty = write_cpp(
      "suppressed", "const char* v = std::getenv(\"HOME\");\n");
  const std::string baseline =
      ::testing::TempDir() + "/exit_codes_ok.baseline";
  std::ofstream(baseline) << "SC902 " << dirty << ":1\n";
  std::string out;
  EXPECT_EQ(run_srclint_args({"--baseline", baseline, dirty}, &out), 0);
  EXPECT_NE(out.find("1 suppressed by baseline"), std::string::npos) << out;
  std::remove(baseline.c_str());
  std::remove(dirty.c_str());
}

TEST(SrclintExitCodes, UsageErrorsExitThree) {
  std::string err;
  EXPECT_EQ(run_srclint_args({}, nullptr, &err), 3);
  EXPECT_NE(err.find("no input paths"), std::string::npos) << err;
  EXPECT_EQ(run_srclint_args({"--frobnicate", "src"}, nullptr, &err), 3);
  EXPECT_EQ(run_srclint_args({"--baseline"}, nullptr, &err), 3);
}

TEST(SrclintExitCodes, HelpAndListCodesExitZero) {
  std::string out;
  EXPECT_EQ(run_srclint_args({"--help"}, &out), 0);
  EXPECT_NE(out.find("exit codes"), std::string::npos);
  EXPECT_EQ(run_srclint_args({"--list-codes"}, &out), 0);
  EXPECT_NE(out.find("SC907"), std::string::npos);
}

// Writes `rel` (with directories) under a scratch tree whose layout
// matters: the cross-file rules scope themselves to src/ and tools/ path
// segments, so graph/SC913 fixtures must live under a fake src/.
std::string write_tree_file(const std::string& root, const std::string& rel,
                            const std::string& text) {
  const std::string path =
      std::filesystem::path(root + "/" + rel).lexically_normal()
          .generic_string();
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(SrclintExitCodes, GraphLockOrderReportsAndExitsZero) {
  const std::string root = ::testing::TempDir() + "/exit_codes_graph";
  write_tree_file(root, "src/x/locked.cpp",
                  "void f() {\n"
                  "  util::MutexLock l1(g_a);\n"
                  "  util::MutexLock l2(g_b);\n"
                  "}\n");
  std::string out;
  EXPECT_EQ(run_srclint_args({"--graph", "lock-order", root + "/src"}, &out),
            0);
  EXPECT_NE(out.find("lock-order graph:"), std::string::npos) << out;
  EXPECT_NE(out.find("1 edge(s)"), std::string::npos) << out;
  std::filesystem::remove_all(root);
}

TEST(SrclintExitCodes, GraphLayersReportsAndExitsZero) {
  const std::string root = ::testing::TempDir() + "/exit_codes_layers";
  write_tree_file(root, "src/obs/hook.cpp", "#include \"util/env.hpp\"\n");
  const std::string layers =
      write_tree_file(root, "good.layers", "util < obs\n");
  std::string out;
  EXPECT_EQ(run_srclint_args(
                {"--graph", "layers", "--layers", layers, root + "/src"},
                &out),
            0);
  EXPECT_NE(out.find("observed include edges"), std::string::npos) << out;
  std::filesystem::remove_all(root);
}

TEST(SrclintExitCodes, GraphUsageErrorsExitThree) {
  std::string err;
  // Unknown graph kind.
  EXPECT_EQ(run_srclint_args({"--graph", "callgraph", "src"}, nullptr, &err),
            3);
  EXPECT_NE(err.find("callgraph"), std::string::npos) << err;
  // --dot (the retired Graphviz export) is an unknown option.
  EXPECT_EQ(run_srclint_args({"--graph", "lock-order", "--dot", "src"},
                             nullptr, &err),
            3);
  EXPECT_NE(err.find("unknown option '--dot'"), std::string::npos) << err;
}

TEST(SrclintExitCodes, GraphLayersWithoutALayersFileExitsOne) {
  // srclint reads ./srclint.layers by default, so run it from the temporary
  // tree, where there is none: from the repository root it would find one.
  const std::string root = ::testing::TempDir() + "/exit_codes_nolayers";
  write_tree_file(root, "src/x/a.cpp", "int x;\n");
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(root);
  std::string err;
  const int code =
      run_srclint_args({"--graph", "layers", "src"}, nullptr, &err);
  std::filesystem::current_path(cwd);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("layers"), std::string::npos) << err;
  std::filesystem::remove_all(root);
}

TEST(SrclintExitCodes, MalformedLayersFileExitsOne) {
  const std::string root = ::testing::TempDir() + "/exit_codes_badlayers";
  write_tree_file(root, "src/x/a.cpp", "int x;\n");
  const std::string layers =
      write_tree_file(root, "bad.layers", "a < b\nb < a\n");
  std::string err;
  EXPECT_EQ(
      run_srclint_args({"--layers", layers, root + "/src"}, nullptr, &err),
      1);
  std::filesystem::remove_all(root);
}

TEST(SrclintExitCodes, LayerViolationExitsTwo) {
  const std::string root = ::testing::TempDir() + "/exit_codes_sc913";
  write_tree_file(root, "src/obs/hook.cpp",
                  "#include \"serve/server.hpp\"\n");
  const std::string layers =
      write_tree_file(root, "dag.layers", "util < obs < serve\n");
  std::string out;
  EXPECT_EQ(run_srclint_args({"--layers", layers, root + "/src"}, &out), 2);
  EXPECT_NE(out.find("[SC913]"), std::string::npos) << out;
  std::filesystem::remove_all(root);
}

TEST(SrclintExitCodes, LockOrderCycleExitsTwo) {
  const std::string root = ::testing::TempDir() + "/exit_codes_sc910";
  write_tree_file(root, "src/x/order.cpp",
                  "void lo() {\n"
                  "  util::MutexLock l1(g_a);\n"
                  "  util::MutexLock l2(g_b);\n"
                  "}\n"
                  "void hi() {\n"
                  "  util::MutexLock l3(g_b);\n"
                  "  util::MutexLock l4(g_a);\n"
                  "}\n");
  std::string out;
  EXPECT_EQ(run_srclint_args({root + "/src"}, &out), 2);
  EXPECT_NE(out.find("[SC910]"), std::string::npos) << out;
  std::filesystem::remove_all(root);
}

TEST(SrclintExitCodes, JsonReportCarriesTheExitCode) {
  const std::string dirty = write_cpp(
      "json", "const char* v = std::getenv(\"HOME\");\n");
  std::string out;
  EXPECT_EQ(run_srclint_args({"--json", dirty}, &out), 2);
  EXPECT_NE(out.find("\"command\": \"srclint\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"exit_code\": 2"), std::string::npos) << out;
  EXPECT_NE(out.find("\"code\": \"SC902\""), std::string::npos) << out;
  std::remove(dirty.c_str());
}

}  // namespace
}  // namespace streamcalc::cli
