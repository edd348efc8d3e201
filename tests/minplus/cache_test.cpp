#include "minplus/cache.hpp"

#include <gtest/gtest.h>

#include "minplus/operations.hpp"

namespace streamcalc::minplus {
namespace {

TEST(CurveOpCache, SecondLookupIsAHitAndComputesOnce) {
  CurveOpCache cache(8);
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve g = Curve::rate_latency(5.0, 1.0);
  int computed = 0;
  const auto compute = [&](const Curve& a, const Curve& b) {
    ++computed;
    return convolve(a, b);
  };
  const Curve r1 = cache.get_or_compute(CacheOp::kConvolve, f, g, compute);
  const Curve r2 = cache.get_or_compute(CacheOp::kConvolve, f, g, compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, convolve(f, g));
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.capacity, 8u);
}

TEST(CurveOpCache, CommutativeOpsShareOneEntryAcrossOperandOrder) {
  // convolve/minimum/maximum/add are commutative: (f, g) and (g, f) must
  // key the same slot, so sweep code need not normalize operand order.
  CurveOpCache cache(8);
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve g = Curve::rate_latency(5.0, 1.0);
  int computed = 0;
  const auto compute = [&](const Curve& a, const Curve& b) {
    ++computed;
    return convolve(a, b);
  };
  const Curve r1 = cache.get_or_compute(CacheOp::kConvolve, f, g, compute);
  const Curve r2 = cache.get_or_compute(CacheOp::kConvolve, g, f, compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(CurveOpCache, NonCommutativeOpsKeepOperandOrderDistinct) {
  CurveOpCache cache(8);
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve g = Curve::rate_latency(5.0, 1.0);
  int computed = 0;
  const auto compute = [&](const Curve& a, const Curve& b) {
    ++computed;
    return deconvolve(a, b);
  };
  cache.get_or_compute(CacheOp::kDeconvolve, f, g, compute);
  cache.get_or_compute(CacheOp::kDeconvolve, g, f, compute);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CurveOpCache, CanonicalizedRepresentationsHitTheSameEntry) {
  // Curves are breakpoint-minimized at construction, so a redundantly
  // specified operand (collinear split, mergeable plateau) hashes exactly
  // like its minimal form and hits the same cache slot.
  CurveOpCache cache(8);
  const Curve minimal = Curve::affine(3.0, 2.0);
  const Curve redundant({Segment{0.0, 0.0, 2.0, 3.0},
                         Segment{4.0, 14.0, 14.0, 3.0}});
  ASSERT_EQ(minimal, redundant);  // canonicalization merged the split
  const Curve g = Curve::rate_latency(5.0, 1.0);
  int computed = 0;
  const auto compute = [&](const Curve& a, const Curve& b) {
    ++computed;
    return convolve(a, b);
  };
  cache.get_or_compute(CacheOp::kConvolve, minimal, g, compute);
  cache.get_or_compute(CacheOp::kConvolve, redundant, g, compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CurveOpCache, OperationTagSeparatesKeys) {
  CurveOpCache cache(8);
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve g = Curve::affine(1.0, 6.0);
  const Curve mn =
      cache.get_or_compute(CacheOp::kMinimum, f, g,
                           [](const Curve& a, const Curve& b) {
                             return minimum(a, b);
                           });
  const Curve mx =
      cache.get_or_compute(CacheOp::kMaximum, f, g,
                           [](const Curve& a, const Curve& b) {
                             return maximum(a, b);
                           });
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(mn, minimum(f, g));
  EXPECT_EQ(mx, maximum(f, g));
}

TEST(CurveOpCache, LruEvictsLeastRecentlyUsed) {
  CurveOpCache cache(2);
  const auto compute = [](const Curve& a, const Curve& b) {
    return minimum(a, b);
  };
  const Curve a = Curve::affine(1.0, 0.0);
  const Curve b = Curve::affine(2.0, 0.0);
  const Curve c = Curve::affine(3.0, 0.0);
  const Curve d = Curve::affine(4.0, 0.0);
  cache.get_or_compute(CacheOp::kMinimum, a, b, compute);  // miss {ab}
  cache.get_or_compute(CacheOp::kMinimum, a, c, compute);  // miss {ab, ac}
  cache.get_or_compute(CacheOp::kMinimum, a, b, compute);  // hit, ab -> MRU
  cache.get_or_compute(CacheOp::kMinimum, a, d, compute);  // miss, evicts ac
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.get_or_compute(CacheOp::kMinimum, a, b, compute);  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.get_or_compute(CacheOp::kMinimum, a, c, compute);  // evicted -> miss
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(CurveOpCache, ZeroCapacityDisablesCaching) {
  CurveOpCache cache(0);
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve g = Curve::rate_latency(5.0, 1.0);
  int computed = 0;
  const auto compute = [&](const Curve& a, const Curve& b) {
    ++computed;
    return convolve(a, b);
  };
  cache.get_or_compute(CacheOp::kConvolve, f, g, compute);
  cache.get_or_compute(CacheOp::kConvolve, f, g, compute);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CurveOpCache, ClearDropsEntriesButKeepsCounters) {
  CurveOpCache cache(8);
  const auto compute = [](const Curve& a, const Curve& b) {
    return minimum(a, b);
  };
  const Curve f = Curve::affine(3.0, 2.0);
  const Curve g = Curve::affine(1.0, 6.0);
  cache.get_or_compute(CacheOp::kMinimum, f, g, compute);
  cache.get_or_compute(CacheOp::kMinimum, f, g, compute);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.get_or_compute(CacheOp::kMinimum, f, g, compute);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CurveOpCache, StructuralHashDistinguishesNearbyCurves) {
  const Curve a = Curve::affine(1.0, 0.5);
  const Curve b = Curve::affine(1.0, 0.5000000001);
  EXPECT_EQ(structural_hash(a), structural_hash(Curve::affine(1.0, 0.5)));
  EXPECT_NE(structural_hash(a), structural_hash(b));
}

TEST(CurveOpCache, CachedWrappersMatchDirectOperators) {
  const Curve f = Curve::affine(40.0, 10.0);
  const Curve g = Curve::rate_latency(60.0, 0.25);
  EXPECT_EQ(cached_convolve(f, g), convolve(f, g));
  EXPECT_EQ(cached_deconvolve(f, g), deconvolve(f, g));
  // Served from the global cache on repeat, still the same result.
  EXPECT_EQ(cached_convolve(f, g), convolve(f, g));
}

}  // namespace
}  // namespace streamcalc::minplus
