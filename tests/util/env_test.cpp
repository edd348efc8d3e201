// Strict environment-variable parsing: garbage must fail loudly with the
// variable's name, never silently fall back to a default.
#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace streamcalc::util {
namespace {

/// Sets an environment variable for one test and restores the previous
/// value on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    previous_ = env_raw(name);
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

constexpr const char* kVar = "STREAMCALC_ENV_TEST_VAR";

TEST(EnvTest, UnsetAndEmptyReturnNullopt) {
  ScopedEnv unset(kVar, nullptr);
  EXPECT_FALSE(env_raw(kVar).has_value());
  EXPECT_FALSE(env_uint(kVar).has_value());
  ScopedEnv empty(kVar, "");
  EXPECT_FALSE(env_raw(kVar).has_value());
  EXPECT_FALSE(env_uint(kVar).has_value());
}

TEST(EnvTest, ParsesPlainIntegers) {
  ScopedEnv env(kVar, "1234");
  EXPECT_EQ(env_uint(kVar), 1234u);
  ScopedEnv zero(kVar, "0");
  EXPECT_EQ(env_uint(kVar), 0u);
}

TEST(EnvTest, RejectsGarbageNamingTheVariable) {
  for (const char* bad : {"fast", "12x", "x12", "1.5", "-3", "+7", " 8",
                          "8 ", "0x10", "1e3"}) {
    ScopedEnv env(kVar, bad);
    try {
      env_uint(kVar);
      FAIL() << "accepted garbage value '" << bad << "'";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(kVar), std::string::npos)
          << "error for '" << bad << "' does not name the variable";
    }
  }
}

TEST(EnvTest, EnforcesRange) {
  ScopedEnv big(kVar, "5000");
  EXPECT_THROW(env_uint(kVar, /*max=*/4096), PreconditionError);
  EXPECT_EQ(env_uint(kVar, 5000), 5000u);
  ScopedEnv small(kVar, "0");
  EXPECT_THROW(env_uint_in(kVar, /*min=*/1), PreconditionError);
  ScopedEnv ok(kVar, "1");
  EXPECT_EQ(env_uint_in(kVar, 1), 1u);
}

TEST(EnvTest, RejectsOverflow) {
  ScopedEnv env(kVar, "99999999999999999999999999");
  EXPECT_THROW(env_uint(kVar), PreconditionError);
}

}  // namespace
}  // namespace streamcalc::util
