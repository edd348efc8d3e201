// Memoization cache for curve operations.
//
// Network-calculus analyses re-apply the same exact operators to the same
// operands over and over: an end-to-end sweep re-convolves identical
// per-stage service curves at every sweep point, and DAG path analysis
// re-derives the same residual-service compositions per path. The operators
// are pure, so the results can be memoized.
//
// The cache is keyed by a structural hash of both operands' segment vectors
// plus an operation tag; entries keep a copy of the operand segments, so a
// hash collision is detected by exact comparison and treated as a miss —
// a hit always returns exactly what the underlying operator would have
// produced. Bounded LRU, thread-safe (results may be computed by pool
// workers concurrently; the first inserted entry wins), with hit/miss
// counters for observability.
//
// The global() instance holds kGlobalCacheEntries results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "minplus/curve.hpp"

namespace streamcalc::minplus {

/// Operation tag mixed into the cache key.
enum class CacheOp : std::uint8_t {
  kConvolve = 1,
  kDeconvolve = 2,
  kMinimum = 3,
  kMaximum = 4,
  kAdd = 5,
  kSubtractClamped = 6,
};

class CurveOpCache {
 public:
  /// A cache holding at most `capacity` results (0 = caching disabled;
  /// every call computes).
  explicit CurveOpCache(std::size_t capacity);
  ~CurveOpCache();

  CurveOpCache(const CurveOpCache&) = delete;
  CurveOpCache& operator=(const CurveOpCache&) = delete;

  /// Returns op(f, g), serving from the cache when the exact operand pair
  /// was seen before and computing + inserting otherwise. `compute` must be
  /// a pure function of its arguments.
  Curve get_or_compute(
      CacheOp op, const Curve& f, const Curve& g,
      const std::function<Curve(const Curve&, const Curve&)>& compute);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };
  Stats stats() const;

  /// Drops all entries (counters are kept).
  void clear();

  /// Capacity of global().
  static constexpr std::size_t kGlobalCacheEntries = 4096;

  /// Process-wide cache, lazily created with kGlobalCacheEntries.
  static CurveOpCache& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Structural hash of a curve's segment vector (bit patterns of x,
/// value_at, value_after, slope), suitable as a cache key component.
std::uint64_t structural_hash(const Curve& c);

// --- Cached wrappers over the global cache -------------------------------
// Drop-in replacements for the operators in operations.hpp; used by the
// netcalc composition layers where operand reuse is high.

Curve cached_convolve(const Curve& f, const Curve& g);
Curve cached_deconvolve(const Curve& f, const Curve& g);

}  // namespace streamcalc::minplus
