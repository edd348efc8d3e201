// Error handling for the streamcalc library.
//
// The library throws `streamcalc::util::Error` (a std::runtime_error) for
// violated preconditions on public API entry points, and uses SC_ASSERT for
// internal invariants that indicate a library bug rather than a caller bug.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace streamcalc::util {

/// Base exception for all streamcalc errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr,
                                     const std::source_location loc) {
  throw Error(std::string("internal invariant violated: ") + expr + " at " +
              loc.file_name() + ":" + std::to_string(loc.line()));
}
}  // namespace detail

/// Checks a caller-facing precondition; throws PreconditionError on failure.
inline void require(bool cond, const std::string& message) {
  if (!cond) throw PreconditionError(message);
}

/// Literal-message overload: avoids materializing a std::string on the
/// success path (require() sits in per-segment loops of the curve engine).
inline void require(bool cond, const char* message) {
  if (!cond) throw PreconditionError(message);
}

}  // namespace streamcalc::util

/// Internal invariant check. Unlike assert(), always on: model code is not
/// hot enough for these to matter, and silent corruption of bounds is worse
/// than the cost of the branch.
#define SC_ASSERT(expr)                                       \
  do {                                                        \
    if (!(expr))                                              \
      ::streamcalc::util::detail::assert_fail(                \
          #expr, ::std::source_location::current());          \
  } while (false)
