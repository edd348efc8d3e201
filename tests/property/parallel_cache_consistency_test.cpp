// Bit-identity contract of the memoization cache, fuzzed over generated
// curves: the cache must serve exactly what the underlying operator
// computes (same segments, same bit patterns). This is an equality
// contract, not an approximation — any drift would break the replication
// runner's byte-identical summaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "minplus/cache.hpp"
#include "minplus/operations.hpp"
#include "testing/property.hpp"

namespace streamcalc::testing {
namespace {

using minplus::Curve;

void expect_holds(FuzzSpec spec, const PropertyFn& property) {
  const auto failure = fuzz(spec, property);
  EXPECT_FALSE(failure.has_value()) << failure->report();
}

TEST(CacheConsistencyFuzz, CachedResultsAreBitIdenticalToUncached) {
  // A private cache per case: the first call computes and inserts, the
  // second must hit and both must equal the direct operator result exactly.
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xc003};
  expect_holds(spec, [](const std::vector<Curve>& c) {
    minplus::CurveOpCache cache(64);
    const auto compute = [](const Curve& f, const Curve& g) {
      return convolve(f, g);
    };
    const Curve direct = convolve(c[0], c[1]);
    const Curve first = cache.get_or_compute(minplus::CacheOp::kConvolve,
                                             c[0], c[1], compute);
    const Curve second = cache.get_or_compute(minplus::CacheOp::kConvolve,
                                              c[0], c[1], compute);
    if (!(first == direct)) {
      return std::string("cache miss path differs from direct convolve");
    }
    if (!(second == direct)) {
      return std::string("cache hit path differs from direct convolve");
    }
    const auto stats = cache.stats();
    if (stats.hits < 1) {
      return std::string("second identical lookup did not hit the cache");
    }
    return std::string();
  });
}

TEST(CacheConsistencyFuzz, OperationTagSeparatesEntries) {
  // The same operand pair under different ops must never alias.
  FuzzSpec spec{{CurveKind::kFinite, CurveKind::kFinite}, {}, 0xc004};
  expect_holds(spec, [](const std::vector<Curve>& c) {
    minplus::CurveOpCache cache(64);
    const Curve conv = cache.get_or_compute(
        minplus::CacheOp::kConvolve, c[0], c[1],
        [](const Curve& f, const Curve& g) { return convolve(f, g); });
    const Curve mini = cache.get_or_compute(
        minplus::CacheOp::kMinimum, c[0], c[1],
        [](const Curve& f, const Curve& g) { return minimum(f, g); });
    if (!(conv == convolve(c[0], c[1]))) {
      return std::string("kConvolve entry corrupted by kMinimum insert");
    }
    if (!(mini == minimum(c[0], c[1]))) {
      return std::string("kMinimum lookup aliased the kConvolve entry");
    }
    return std::string();
  });
}

TEST(CacheConsistencyFuzz, GlobalCachedWrappersMatchDirectOperators) {
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xc005};
  expect_holds(spec, [](const std::vector<Curve>& c) {
    if (!(minplus::cached_convolve(c[0], c[1]) == convolve(c[0], c[1]))) {
      return std::string("cached_convolve != convolve");
    }
    if (!(minplus::cached_deconvolve(c[0], c[1]) ==
          deconvolve(c[0], c[1]))) {
      return std::string("cached_deconvolve != deconvolve");
    }
    return std::string();
  });
}

}  // namespace
}  // namespace streamcalc::testing
