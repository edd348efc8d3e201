// Strict environment-variable parsing.
//
// The tuning knobs (STREAMCALC_FUZZ_CASES, STREAMCALC_LINT, ...) used to
// fall back to defaults on garbage input — a typoed value silently meant
// "the default", which is exactly the wrong behavior for a
// reproducibility knob. These helpers reject malformed values with an
// error that names the variable and the accepted forms, so a typo fails
// loudly at startup instead of silently changing what the run measures.
//
// Header-only on purpose: obs sits *below* util in the link graph
// (Context::install calls into obs), and obs/runtime.cpp needs the same
// strict STREAMCALC_OBS parse as Context::from_env(). Like util/sync.hpp, this
// header is usable by include path alone, with no dependency on sc_util.
// It is also the one place the project may call ::getenv — srclint's
// SC902/SC903 rules (DESIGN.md §13) enforce that every other environment
// read goes through these helpers or the Context facade.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace streamcalc::util {

/// Raw value of `name`, or nullopt when unset or set to the empty string
/// (both conventionally mean "use the default").
inline std::optional<std::string> env_raw(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

/// Parses `name` as a non-negative decimal integer <= `max`. Returns
/// nullopt when unset/empty. Throws PreconditionError naming the variable
/// on any other input: non-numeric text, trailing junk ("8x"), signs,
/// whitespace, or out-of-range values.
inline std::optional<std::uint64_t> env_uint(const std::string& name,
                                             std::uint64_t max = UINT64_MAX) {
  const auto raw = env_raw(name);
  if (!raw) return std::nullopt;
  const std::string& text = *raw;
  // from_chars accepts only an optional minus sign plus digits — no
  // leading whitespace, no "+", no hex — which is exactly the strictness
  // we want. Reject the minus sign up front for a clearer message.
  std::uint64_t parsed = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto result = std::from_chars(first, last, parsed, 10);
  if (result.ec != std::errc{} || result.ptr != last ||
      !std::isdigit(static_cast<unsigned char>(text.front()))) {
    throw PreconditionError(
        name + "=\"" + text +
        "\" is not a valid setting: expected a non-negative integer");
  }
  if (parsed > max) {
    throw PreconditionError(name + "=" + text + " is out of range (max " +
                            std::to_string(max) + ")");
  }
  return parsed;
}

/// Like env_uint but with a lower bound: values below `min` are rejected
/// with the same variable-naming error. Used by knobs where 0 is not a
/// meaningful setting (e.g. STREAMCALC_FUZZ_CASES).
inline std::optional<std::uint64_t> env_uint_in(const std::string& name,
                                                std::uint64_t min,
                                                std::uint64_t max =
                                                    UINT64_MAX) {
  const auto parsed = env_uint(name, max);
  if (parsed && *parsed < min) {
    throw PreconditionError(name + "=" + std::to_string(*parsed) +
                            " is out of range (min " + std::to_string(min) +
                            ")");
  }
  return parsed;
}

/// Parses `name` as a boolean switch: "on"/"1"/"true" and
/// "off"/"0"/"false" only. Returns nullopt when unset/empty; throws
/// PreconditionError naming the variable on anything else. This is the
/// grammar of STREAMCALC_OBS, shared by Context::from_env() and the obs
/// runtime bootstrap so the two can never drift apart again.
inline std::optional<bool> env_bool(const std::string& name) {
  const auto raw = env_raw(name);
  if (!raw) return std::nullopt;
  if (*raw == "on" || *raw == "1" || *raw == "true") return true;
  if (*raw == "off" || *raw == "0" || *raw == "false") return false;
  throw PreconditionError(name + "=\"" + *raw +
                          "\" is not a valid setting: expected \"on\", "
                          "\"off\", \"0\", \"1\", \"true\", or \"false\"");
}

}  // namespace streamcalc::util
