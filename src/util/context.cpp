#include "util/context.hpp"

#include "obs/runtime.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace streamcalc::util {

namespace {

EnforceMode parse_mode_env(const std::string& name, EnforceMode fallback) {
  const auto raw = env_raw(name);
  if (!raw) return fallback;
  if (*raw == "off") return EnforceMode::kOff;
  if (*raw == "warn") return EnforceMode::kWarn;
  if (*raw == "strict") return EnforceMode::kStrict;
  throw PreconditionError(name + "=\"" + *raw +
                          "\" is not a valid setting: expected \"off\", "
                          "\"warn\", or \"strict\"");
}

}  // namespace

const char* to_string(EnforceMode m) {
  switch (m) {
    case EnforceMode::kOff:
      return "off";
    case EnforceMode::kWarn:
      return "warn";
    case EnforceMode::kStrict:
      return "strict";
  }
  return "?";
}

Context Context::from_env() {
  Context ctx;
  const auto fuzz = env_uint_in("STREAMCALC_FUZZ_CASES", 1, 100000000);
  if (fuzz) ctx.fuzz_cases = static_cast<int>(*fuzz);
  ctx.lint = parse_mode_env("STREAMCALC_LINT", EnforceMode::kWarn);
  ctx.certify = parse_mode_env("STREAMCALC_CERTIFY", EnforceMode::kOff);
  // Same strict grammar as the obs runtime bootstrap (util/env.hpp).
  ctx.obs = env_bool("STREAMCALC_OBS").value_or(true);
  return ctx;
}

void Context::install(const Context& ctx) { obs::set_enabled(ctx.obs); }

}  // namespace streamcalc::util
