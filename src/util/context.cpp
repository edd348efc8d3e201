#include "util/context.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "obs/runtime.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::util {

namespace {

// Upper bound on an explicit thread count; values past this are resource
// exhaustion bugs (typoed exponents), not tuning.
constexpr std::uint64_t kMaxThreads = 4096;

unsigned parse_threads_env() {
  const auto raw = env_raw("STREAMCALC_THREADS");
  if (!raw) return 0;
  if (*raw == "serial") return 1;
  std::optional<std::uint64_t> parsed;
  try {
    parsed = env_uint("STREAMCALC_THREADS", kMaxThreads);
  } catch (const PreconditionError&) {
    throw PreconditionError(
        "STREAMCALC_THREADS=\"" + *raw +
        "\" is not a valid setting: expected a non-negative thread count "
        "(0 = hardware concurrency, max " +
        std::to_string(kMaxThreads) + ") or \"serial\"");
  }
  return static_cast<unsigned>(*parsed);
}

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

// The installed-context slot (filled by install() or the first active()
// call), under the annotated util::Mutex so the thread-safety analysis
// covers every access (a raw std::mutex here was invisible to
// -Werror=thread-safety — srclint SC901). The slot is a
// heap-allocated pointer rather than a std::optional so it can be
// constant-initialized: a plain pointer has no static-destruction order
// hazard against late readers.
Mutex g_installed_mutex;
Context* g_installed SC_GUARDED_BY(g_installed_mutex) = nullptr;

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
  ctx.threads = parse_threads_env();
  const auto fuzz = env_uint_in("STREAMCALC_FUZZ_CASES", 1, 100000000);
  if (fuzz) ctx.fuzz_cases = static_cast<int>(*fuzz);
  ctx.lint = parse_mode_env("STREAMCALC_LINT", EnforceMode::kWarn);
  ctx.certify = parse_mode_env("STREAMCALC_CERTIFY", EnforceMode::kOff);
  // Same strict grammar as the obs runtime bootstrap (util/env.hpp).
  ctx.obs = env_bool("STREAMCALC_OBS").value_or(true);
  return ctx;
}

Context Context::active() {
  const MutexLock lock(g_installed_mutex);
  if (g_installed == nullptr) g_installed = new Context(from_env());
  return *g_installed;
}

void Context::install(const Context& ctx) {
  {
    const MutexLock lock(g_installed_mutex);
    if (g_installed == nullptr) {
      g_installed = new Context(ctx);
    } else {
      *g_installed = ctx;
    }
  }
  obs::set_enabled(ctx.obs);
}

unsigned Context::resolved_threads() const {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned Context::pool_workers() const {
  const unsigned resolved = resolved_threads();
  return resolved <= 1 ? 0u : resolved;
}

}  // namespace streamcalc::util
