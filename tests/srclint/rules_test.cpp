// Per-code unit tests for the srclint rules (SC901–SC908): each rule's
// pattern, its scope, and its allowlist, plus the registry, the baseline
// machinery, and the exact-representability predicate behind SC904.
//
// Planted violations live inside raw-string fixtures, so scanning this
// test file with srclint itself stays clean: string content never produces
// the identifier/comment tokens the rules match on.
#include "srclint/rules.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "srclint/baseline.hpp"
#include "srclint/finding.hpp"

namespace streamcalc::srclint {
namespace {

std::vector<std::string> codes_in(const std::string& path,
                                  const std::string& content) {
  std::vector<std::string> codes;
  for (const Finding& f : check_source(path, content)) {
    codes.push_back(f.code);
  }
  return codes;
}

bool flags(const std::string& path, const std::string& content,
           const std::string& code) {
  for (const std::string& c : codes_in(path, content)) {
    if (c == code) return true;
  }
  return false;
}

// --- registry ---------------------------------------------------------------

TEST(SrclintRegistry, ElevenStableCodes) {
  // SC901-SC908 are per-file rules; SC910, SC911 and SC913 are the
  // cross-file concurrency/layer passes. SC909 is deliberately
  // unallocated and SC912 is retired; neither number is reused.
  const std::vector<std::string> codes = registered_codes();
  const std::vector<std::string> expected = {
      "SC901", "SC902", "SC903", "SC904", "SC905", "SC906",
      "SC907", "SC908", "SC910", "SC911", "SC913"};
  EXPECT_EQ(codes, expected);
}

TEST(SrclintRegistry, TitlesResolveAndUnknownCodesDoNot) {
  EXPECT_STREQ(code_title("SC901"), "raw standard synchronization primitive");
  EXPECT_EQ(code_title("SC999"), nullptr);
  EXPECT_EQ(code_title("NC001"), nullptr);
}

TEST(SrclintRegistry, ListCodesNamesEveryCode) {
  const std::string table = list_codes_text();
  for (const std::string& code : registered_codes()) {
    EXPECT_NE(table.find(code), std::string::npos) << code;
  }
}

TEST(SrclintFinding, RenderIsCompilerStyleWithHint) {
  const Finding f{"SC901", "src/a.cpp", 7, "message text", "hint text"};
  const std::string text = render(f);
  EXPECT_NE(text.find("src/a.cpp:7: warning [SC901] message text"),
            std::string::npos);
  EXPECT_NE(text.find("hint: hint text"), std::string::npos);
  EXPECT_EQ(baseline_key(f), "SC901 src/a.cpp:7");
}

// --- SC901: raw standard synchronization primitives -------------------------

TEST(SrclintSC901, FlagsRawMutexAnywhereInTheTree) {
  const std::string source = R"cc(
    struct S {
      std::mutex m_;
    };
  )cc";
  EXPECT_TRUE(flags("src/serve/server.hpp", source, "SC901"));
  EXPECT_TRUE(flags("tools/widget.cpp", source, "SC901"));
}

TEST(SrclintSC901, FlagsLocksAndConditionVariables) {
  EXPECT_TRUE(flags("src/a.cpp", R"cc(std::lock_guard<std::mutex> l(m);)cc",
                    "SC901"));
  EXPECT_TRUE(flags("src/a.cpp", R"cc(std::condition_variable cv;)cc",
                    "SC901"));
  EXPECT_TRUE(flags("src/a.cpp", R"cc(std::unique_lock<std::mutex> l(m);)cc",
                    "SC901"));
  EXPECT_TRUE(flags("src/a.cpp", R"cc(std::shared_mutex rw;)cc", "SC901"));
}

TEST(SrclintSC901, AllowsTheAnnotatedWrapperImplementation) {
  const std::string source = R"cc(class Mutex { std::mutex raw_; };)cc";
  EXPECT_FALSE(flags("src/util/sync.hpp", source, "SC901"));
  EXPECT_TRUE(flags("src/util/other.hpp", source, "SC901"));
}

TEST(SrclintSC901, IgnoresCommentsStringsAndUnqualifiedNames) {
  EXPECT_FALSE(flags("src/a.cpp", R"cc(// prefer util::Mutex to std::mutex
  )cc",
                     "SC901"));
  EXPECT_FALSE(flags("src/a.cpp", R"cc(log("std::mutex is banned");)cc",
                     "SC901"));
  // util::Mutex itself and an unqualified identifier are fine.
  EXPECT_FALSE(flags("src/a.cpp", R"cc(util::Mutex m; int mutex = 0;)cc",
                     "SC901"));
}

TEST(SrclintSC901, ReportsTheLineOfTheName) {
  const std::string source = "int a;\nint b;\nstd::mutex m;\n";
  const std::vector<Finding> fs = check_source("src/a.cpp", source);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].code, "SC901");
  EXPECT_EQ(fs[0].line, 3);
}

// --- SC902: direct getenv ----------------------------------------------------

TEST(SrclintSC902, FlagsQualifiedAndUnqualifiedCalls) {
  EXPECT_TRUE(flags("src/a.cpp", R"cc(const char* v = std::getenv("HOME");)cc",
                    "SC902"));
  EXPECT_TRUE(flags("tests/a_test.cpp", R"cc(auto* v = ::getenv("HOME");)cc",
                    "SC902"));
}

TEST(SrclintSC902, AllowsTheEnvFacadeItself) {
  const std::string source = R"cc(const char* v = std::getenv(name.c_str());)cc";
  EXPECT_FALSE(flags("src/util/env.hpp", source, "SC902"));
  EXPECT_TRUE(flags("src/util/context.cpp", source, "SC902"));
}

TEST(SrclintSC902, MentionWithoutACallDoesNotFire) {
  EXPECT_FALSE(flags("src/a.cpp", R"cc(// getenv is banned (SC902)
  )cc",
                     "SC902"));
  EXPECT_FALSE(flags("src/a.cpp", R"cc(log("getenv(HOME) failed");)cc",
                     "SC902"));
}

// --- SC903: STREAMCALC_* outside the facade ---------------------------------

TEST(SrclintSC903, FlagsKnobReadsOutsideTheFacade) {
  const std::string source =
      R"cc(const auto v = util::env_raw("STREAMCALC_FUZZ_CASES");)cc";
  EXPECT_TRUE(flags("src/minplus/operations.cpp", source, "SC903"));
  EXPECT_TRUE(flags("bench/bench_compare.cpp", source, "SC903"));
  EXPECT_TRUE(flags("tools/streamcalc.cpp", source, "SC903"));
}

TEST(SrclintSC903, TestsMayManipulateTheRawEnvironment) {
  const std::string source =
      R"cc(const auto v = util::env_raw("STREAMCALC_FUZZ_CASES");)cc";
  EXPECT_FALSE(flags("tests/util/env_test.cpp", source, "SC903"));
}

TEST(SrclintSC903, TheFacadeAndTheObsBootstrapAreAllowlisted) {
  const std::string source =
      R"cc(const auto v = env_bool("STREAMCALC_OBS");)cc";
  EXPECT_FALSE(flags("src/util/context.cpp", source, "SC903"));
  EXPECT_FALSE(flags("src/obs/runtime.cpp", source, "SC903"));
  EXPECT_TRUE(flags("src/obs/trace.cpp", source, "SC903"));
}

TEST(SrclintSC903, NonProjectVariablesAreOutOfScope) {
  EXPECT_FALSE(flags("src/a.cpp", R"cc(auto v = util::env_raw("HOME");)cc",
                     "SC903"));
}

// --- SC904: equality with an inexact float literal ---------------------------

TEST(SrclintSC904, FlagsInexactLiteralEqualityInNumericKernels) {
  EXPECT_TRUE(flags("src/minplus/curve.cpp", R"cc(if (x == 0.1) return;)cc",
                    "SC904"));
  EXPECT_TRUE(flags("src/minplus/operations.cpp",
                    R"cc(bool b = y != 1e-3;)cc", "SC904"));
  EXPECT_TRUE(flags("src/certify/exact.cpp", R"cc(if (0.3 == z) return;)cc",
                    "SC904"));
}

TEST(SrclintSC904, DyadicLiteralsCompareExactlyByDesign) {
  EXPECT_FALSE(flags("src/minplus/curve.cpp", R"cc(if (x == 0.0) return;)cc",
                     "SC904"));
  EXPECT_FALSE(flags("src/minplus/curve.cpp", R"cc(if (x == 0.5) return;)cc",
                     "SC904"));
  EXPECT_FALSE(flags("src/minplus/curve.cpp", R"cc(if (x == 2.25) return;)cc",
                     "SC904"));
}

TEST(SrclintSC904, OnlyTheNumericKernelsAreInScope) {
  EXPECT_FALSE(flags("src/netcalc/dag.cpp", R"cc(if (x == 0.1) return;)cc",
                     "SC904"));
  EXPECT_FALSE(flags("tests/minplus/curve_test.cpp",
                     R"cc(if (x == 0.1) return;)cc", "SC904"));
}

TEST(SrclintSC904, ExactRepresentabilityPredicate) {
  // Dyadic decimals are exact in double precision.
  EXPECT_FALSE(inexact_float_literal("0.5"));
  EXPECT_FALSE(inexact_float_literal("0.25"));
  EXPECT_FALSE(inexact_float_literal("3.0"));
  EXPECT_FALSE(inexact_float_literal("1e3"));
  EXPECT_FALSE(inexact_float_literal("1'000.0"));
  // Any residual factor of 5 in the denominator is not.
  EXPECT_TRUE(inexact_float_literal("0.1"));
  EXPECT_TRUE(inexact_float_literal("1e-3"));
  EXPECT_TRUE(inexact_float_literal("0.3"));
  // Mantissa-width limits: 2^53 for double, 2^24 for float.
  EXPECT_FALSE(inexact_float_literal("9007199254740992.0"));
  EXPECT_TRUE(inexact_float_literal("9007199254740993.0"));
  EXPECT_FALSE(inexact_float_literal("16777216.0f"));
  EXPECT_TRUE(inexact_float_literal("16777217.0f"));
  EXPECT_FALSE(inexact_float_literal("0.5f"));
  EXPECT_TRUE(inexact_float_literal("0.1f"));
}

TEST(SrclintSC904, NonDecimalSpellingsStaySilent) {
  EXPECT_FALSE(inexact_float_literal("42"));       // integer
  EXPECT_FALSE(inexact_float_literal("0x1Fp0"));   // hex float: exact
  EXPECT_FALSE(inexact_float_literal("0"));
}

// --- SC905: suppression hygiene ---------------------------------------------

std::string comment(const std::string& body) { return "// " + body + "\n"; }

// The marker is assembled at runtime so this test file's own comments and
// tokens never spell it.
const std::string kM = std::string("NO") + "LINT";

TEST(SrclintSC905, BareSuppressionIsFlagged) {
  EXPECT_TRUE(flags("src/a.cpp", comment(kM), "SC905"));
  EXPECT_TRUE(flags("src/a.cpp", comment(kM + "NEXTLINE"), "SC905"));
  EXPECT_TRUE(flags("src/a.cpp", comment(kM + "BEGIN"), "SC905"));
  // Tests are not exempt from suppression hygiene.
  EXPECT_TRUE(flags("tests/a_test.cpp", comment(kM), "SC905"));
}

TEST(SrclintSC905, CheckWithoutReasonIsFlagged) {
  EXPECT_TRUE(flags("src/a.cpp", comment(kM + "(some-check)"), "SC905"));
  EXPECT_TRUE(flags("src/a.cpp", comment(kM + "(some-check):"), "SC905"));
  EXPECT_TRUE(flags("src/a.cpp", comment(kM + "(some-check):   "), "SC905"));
  // A wildcard check list names nothing.
  EXPECT_TRUE(flags("src/a.cpp", comment(kM + "(*): because"), "SC905"));
}

TEST(SrclintSC905, NamedCheckWithReasonPasses) {
  EXPECT_FALSE(
      flags("src/a.cpp", comment(kM + "(some-check): deliberate, see docs"),
            "SC905"));
  EXPECT_FALSE(flags("src/a.cpp",
                     comment(kM + "NEXTLINE(some-check): constructor idiom"),
                     "SC905"));
  EXPECT_FALSE(flags("src/a.cpp",
                     comment(kM + "BEGIN(some-check): block-wide exception"),
                     "SC905"));
  // END closes an annotated BEGIN and needs no reason of its own.
  EXPECT_FALSE(flags("src/a.cpp", comment(kM + "END(some-check)"), "SC905"));
  EXPECT_FALSE(flags("src/a.cpp", comment(kM + "END"), "SC905"));
}

TEST(SrclintSC905, ProseMentionsDoNotFire) {
  EXPECT_FALSE(flags("src/a.cpp", comment("lines can be " + kM + "ed"),
                     "SC905"));
  EXPECT_FALSE(flags("src/a.cpp", comment("the UN" + kM + " case"), "SC905"));
  // Markers inside string literals are diagnostics text, not suppressions.
  EXPECT_FALSE(flags("src/a.cpp", "log(\"" + kM + "\");\n", "SC905"));
}

TEST(SrclintSC905, ReportsTheCommentLine) {
  const std::string source = "int a;\n" + comment(kM);
  const std::vector<Finding> fs = check_source("src/a.cpp", source);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

// --- SC906: unguarded mutable members near a mutex --------------------------

TEST(SrclintSC906, FlagsUnannotatedMutableNextToAMutex) {
  const std::string source = R"cc(
    class Cache {
      util::Mutex mutex_;
      mutable std::string last_;
    };
  )cc";
  EXPECT_TRUE(flags("src/minplus/cache.hpp", source, "SC906"));
}

TEST(SrclintSC906, GuardedAndLockFreeMembersPass) {
  EXPECT_FALSE(flags("src/a.hpp", R"cc(
    class Cache {
      util::Mutex mutex_;
      mutable std::string last_ SC_GUARDED_BY(mutex_);
    };
  )cc",
                     "SC906"));
  EXPECT_FALSE(flags("src/a.hpp", R"cc(
    class Cache {
      util::Mutex mutex_;
      mutable std::atomic<int> hits_{0};
    };
  )cc",
                     "SC906"));
  // The lock object itself may be mutable (lock-in-const-method idiom).
  EXPECT_FALSE(flags("src/a.hpp", R"cc(
    class Cache {
      mutable util::Mutex mutex_;
    };
  )cc",
                     "SC906"));
}

TEST(SrclintSC906, RequiresAMutexInTheFileAndTheSrcTree) {
  const std::string source = R"cc(
    class View {
      mutable std::string cached_;
    };
  )cc";
  // No mutex anywhere in the file: mutable is just caching, not sharing.
  EXPECT_FALSE(flags("src/a.hpp", source, "SC906"));
  // Out of scope for tests even with a mutex present.
  const std::string with_mutex = R"cc(
    class View {
      util::Mutex m_;
      mutable std::string cached_;
    };
  )cc";
  EXPECT_FALSE(flags("tests/a_test.cpp", with_mutex, "SC906"));
  EXPECT_TRUE(flags("src/a.hpp", with_mutex, "SC906"));
}

TEST(SrclintSC906, MutableLambdasAreNotDeclarations) {
  EXPECT_FALSE(flags("src/a.cpp", R"cc(
    util::Mutex m;
    auto f = [n = 0]() mutable { return ++n; };
  )cc",
                     "SC906"));
}

// --- SC907: raw threads outside the registries ------------------------------

TEST(SrclintSC907, FlagsRawThreadsAndDetach) {
  EXPECT_TRUE(flags("src/serve/worker.cpp", R"cc(std::thread t(run);)cc",
                    "SC907"));
  EXPECT_TRUE(flags("src/serve/worker.cpp", R"cc(std::jthread t(run);)cc",
                    "SC907"));
  EXPECT_TRUE(flags("tools/widget.cpp", R"cc(t.detach();)cc", "SC907"));
  EXPECT_TRUE(flags("src/a.cpp", R"cc(handle->detach();)cc", "SC907"));
}

TEST(SrclintSC907, CapacityQueriesAndRegistriesAreExempt) {
  const std::string query =
      R"cc(unsigned n = std::thread::hardware_concurrency();)cc";
  EXPECT_FALSE(flags("src/util/context.cpp", query, "SC907"));
  const std::string spawn = R"cc(workers_.emplace_back(std::thread(run));)cc";
  EXPECT_FALSE(flags("src/util/parallel_for.cpp", spawn, "SC907"));
  EXPECT_FALSE(flags("src/serve/server.cpp", spawn, "SC907"));
  // Tests may spawn raw threads to hammer concurrency invariants.
  EXPECT_FALSE(flags("tests/util/thread_pool_test.cpp", spawn, "SC907"));
}

// --- baseline ---------------------------------------------------------------

TEST(SrclintBaseline, ParsesKeysSkipsCommentsReportsGarbage) {
  std::vector<std::string> errors;
  const Baseline b = parse_baseline(
      "# header comment\n"
      "\n"
      "SC901 src/a.cpp:12\n"
      "SC905 src/b.hpp:3   # trailing note\n"
      "not a key\n",
      &errors);
  ASSERT_EQ(b.keys.size(), 2u);
  EXPECT_EQ(b.keys[0], "SC901 src/a.cpp:12");
  EXPECT_EQ(b.keys[1], "SC905 src/b.hpp:3");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 5"), std::string::npos);
}

TEST(SrclintBaseline, SuppressesMatchesAndReportsStaleEntries) {
  const Finding match{"SC901", "src/a.cpp", 12, "m", ""};
  const Finding keep{"SC901", "src/a.cpp", 13, "m", ""};
  Baseline b;
  b.keys = {"SC901 src/a.cpp:12", "SC902 src/gone.cpp:1"};
  std::vector<Finding> suppressed;
  std::vector<std::string> stale;
  const std::vector<Finding> kept =
      apply_baseline({match, keep}, b, &suppressed, &stale);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].line, 13);
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].line, 12);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "SC902 src/gone.cpp:1");
}

}  // namespace
}  // namespace streamcalc::srclint
