// Stub that exists only for perfbench/driver, which still clears the
// removed curve-op cache and reads its hit/miss counters; the min-plus
// operators are called directly and nothing is memoized, so the stats are
// always zero. Delete it in the next benchmark change. Nothing else may
// include it.
#pragma once

#include <cstdint>

namespace streamcalc::minplus {

class CurveOpCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  Stats stats() const { return {}; }
  void clear() {}

  static CurveOpCache& global() {
    static CurveOpCache cache;
    return cache;
  }
};

}  // namespace streamcalc::minplus
