// Context facade contract: from_env() parses every STREAMCALC_* knob (or
// rejects it with an error naming the variable).
//
// These tests setenv/unsetenv, so they live in their own binary (see
// CMakeLists.txt) and restore the environment in the fixture.
#include "util/context.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace streamcalc::util {
namespace {

const char* const kVars[] = {
    "STREAMCALC_FUZZ_CASES",
    "STREAMCALC_LINT",
    "STREAMCALC_CERTIFY",
    "STREAMCALC_OBS",
};

class ContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* v : kVars) ::unsetenv(v);
  }
  void TearDown() override {
    for (const char* v : kVars) ::unsetenv(v);
  }
};

TEST_F(ContextTest, DefaultsMatchDocumentedKnobs) {
  const Context ctx = Context::from_env();
  EXPECT_EQ(ctx.fuzz_cases, 500);
  EXPECT_EQ(ctx.lint, EnforceMode::kWarn);
  EXPECT_EQ(ctx.certify, EnforceMode::kOff);
  EXPECT_TRUE(ctx.obs);
  EXPECT_FALSE(ctx.stats);
  EXPECT_TRUE(ctx.trace_path.empty());
}

TEST_F(ContextTest, ParsesEveryVariable) {
  ::setenv("STREAMCALC_FUZZ_CASES", "42", 1);
  ::setenv("STREAMCALC_LINT", "strict", 1);
  ::setenv("STREAMCALC_CERTIFY", "warn", 1);
  ::setenv("STREAMCALC_OBS", "off", 1);
  const Context ctx = Context::from_env();
  EXPECT_EQ(ctx.fuzz_cases, 42);
  EXPECT_EQ(ctx.lint, EnforceMode::kStrict);
  EXPECT_EQ(ctx.certify, EnforceMode::kWarn);
  EXPECT_FALSE(ctx.obs);
}

TEST_F(ContextTest, EnforceModesParseEverySpelling) {
  const struct {
    const char* value;
    EnforceMode mode;
  } spellings[] = {{"off", EnforceMode::kOff},
                   {"warn", EnforceMode::kWarn},
                   {"strict", EnforceMode::kStrict}};
  for (const auto& [value, mode] : spellings) {
    ::setenv("STREAMCALC_LINT", value, 1);
    ::setenv("STREAMCALC_CERTIFY", value, 1);
    const Context ctx = Context::from_env();
    EXPECT_EQ(ctx.lint, mode) << value;
    EXPECT_EQ(ctx.certify, mode) << value;
  }
}

TEST_F(ContextTest, ObsAcceptsBooleanSpellings) {
  for (const char* on : {"on", "1", "true"}) {
    ::setenv("STREAMCALC_OBS", on, 1);
    EXPECT_TRUE(Context::from_env().obs) << on;
  }
  for (const char* off : {"off", "0", "false"}) {
    ::setenv("STREAMCALC_OBS", off, 1);
    EXPECT_FALSE(Context::from_env().obs) << off;
  }
}

TEST_F(ContextTest, RejectsMalformedValuesNamingTheVariable) {
  const struct {
    const char* var;
    const char* value;
  } bad[] = {
      {"STREAMCALC_FUZZ_CASES", "0"},      {"STREAMCALC_LINT", "maybe"},
      {"STREAMCALC_LINT", "pedantic"},     {"STREAMCALC_CERTIFY", "yes"},
      {"STREAMCALC_CERTIFY", "paranoid"},  {"STREAMCALC_CERTIFY", "bogus"},
      {"STREAMCALC_OBS", "sometimes"},
  };
  for (const auto& [var, value] : bad) {
    ::setenv(var, value, 1);
    try {
      (void)Context::from_env();
      FAIL() << var << "=" << value << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << "error for " << var << " does not name it: " << e.what();
    }
    ::unsetenv(var);
  }
}

TEST_F(ContextTest, EnforceModeToStringRoundTrips) {
  EXPECT_STREQ(to_string(EnforceMode::kOff), "off");
  EXPECT_STREQ(to_string(EnforceMode::kWarn), "warn");
  EXPECT_STREQ(to_string(EnforceMode::kStrict), "strict");
}

}  // namespace
}  // namespace streamcalc::util
