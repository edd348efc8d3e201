// Exact-bits pins for branch envelopes that span several 64-branch tiles.
// The general convolution and the general deconvolution build one branch
// curve per operand breakpoint and fold them tile by tile
// (detail::fold_envelope). These operands, from the micro_minplus
// generators, cross two or more tiles and end on a partial tile. Each
// result is pinned by a hash of its segments' bit patterns, so any change
// to the fold order or to the branches' anchors shows up as a changed
// hash, not as a tolerance drift.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "minplus/operations.hpp"
#include "util/rng.hpp"

namespace streamcalc::minplus {
namespace {

/// Concave increasing curve with n segments (same construction as
/// bench/micro_minplus.cpp).
Curve concave_curve(int n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Segment> segs;
  double x = 0.0, y = 0.0, slope = 64.0;
  for (int i = 0; i < n; ++i) {
    segs.push_back(Segment{x, y, y, slope});
    const double dx = rng.uniform(0.5, 1.5);
    y += slope * dx;
    x += dx;
    slope *= rng.uniform(0.97, 0.995);
  }
  return Curve(std::move(segs));
}

/// Convex curve with n segments (increasing slopes).
Curve convex_curve(int n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Segment> segs;
  double x = 0.0, y = 0.0, slope = 1.0;
  for (int i = 0; i < n; ++i) {
    segs.push_back(Segment{x, y, y, slope});
    const double dx = rng.uniform(0.5, 1.5);
    y += slope * dx;
    x += dx;
    slope *= rng.uniform(1.002, 1.012);
  }
  return Curve(std::move(segs));
}

/// FNV-1a over the segment count and every segment's four IEEE-754 bit
/// patterns, in order.
std::uint64_t segment_bits_hash(const Curve& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(c.segments().size());
  for (const Segment& s : c.segments()) {
    for (const double v : {s.x, s.value_at, s.value_after, s.slope}) {
      mix(std::bit_cast<std::uint64_t>(v));
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_pinned(const Curve& result, std::uint64_t pinned,
                   const std::string& what) {
  EXPECT_EQ(hex(segment_bits_hash(result)), hex(pinned))
      << what << " (" << result.segments().size() << " segments)";
}

TEST(EnvelopePin, GeneralConvolveMatchesRecordedBits) {
  const std::vector<std::pair<int, std::uint64_t>> pins = {
      {8, 0xf6a822ac20fddf31ULL},
      {48, 0xb5af15678f2c932cULL},
      {200, 0xc92b971ba12daebeULL}};
  for (const auto& [n, pinned] : pins) {
    const Curve a = concave_curve(n, 6).plus_step(2.0);  // general path
    const Curve b = convex_curve(n, 7);
    expect_pinned(convolve(a, b), pinned, "convolve n=" + std::to_string(n));
  }
}

TEST(EnvelopePin, DeconvolveMatchesRecordedBits) {
  const std::vector<std::pair<int, std::uint64_t>> pins = {
      {8, 0xd5c99a88575f314aULL},
      {48, 0xb1b52b8e71168d45ULL},
      {200, 0x1ddb7e7e5daf83fdULL}};
  for (const auto& [n, pinned] : pins) {
    const Curve a = concave_curve(n, 8);
    const Curve b = add(convex_curve(n, 9), Curve::rate(80.0));
    expect_pinned(deconvolve(a, b), pinned,
                  "deconvolve n=" + std::to_string(n));
  }
}

TEST(EnvelopePin, PointwiseMinimumMatchesRecordedBits) {
  const Curve a = concave_curve(300, 10);
  const Curve b = convex_curve(300, 11);
  expect_pinned(minimum(a, b), 0x73aa7a15b30aa574ULL, "minimum n=300");
}

}  // namespace
}  // namespace streamcalc::minplus
