#include "kernels/lz4lite.hpp"

#include <gtest/gtest.h>

#include <string>

#include "kernels/testdata.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::kernels {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

/// Original size / compressed size of one chunk.
double ratio(const std::vector<std::uint8_t>& data) {
  return static_cast<double>(data.size()) /
         static_cast<double>(lz4lite_compress(data).size());
}

void expect_round_trip(const std::vector<std::uint8_t>& data) {
  const auto compressed = lz4lite_compress(data);
  const auto restored = lz4lite_decompress(compressed);
  EXPECT_EQ(restored, data);
}

TEST(Lz4Lite, EmptyInput) { expect_round_trip({}); }

TEST(Lz4Lite, TinyInputsAreLiteralOnly) {
  expect_round_trip(bytes("a"));
  expect_round_trip(bytes("hello"));
  expect_round_trip(bytes("abcdefghijk"));
}

TEST(Lz4Lite, RepetitiveDataCompressesWell) {
  const auto data = bytes(std::string(8192, 'x'));
  const auto compressed = lz4lite_compress(data);
  expect_round_trip(data);
  EXPECT_GT(ratio(data), 50.0);
  EXPECT_LT(compressed.size(), data.size() / 50);
}

TEST(Lz4Lite, PeriodicPatternCompresses) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "pattern-1234;";
  expect_round_trip(bytes(s));
  EXPECT_GT(ratio(bytes(s)), 5.0);
}

TEST(Lz4Lite, RandomDataBarelyExpands) {
  util::Xoshiro256 rng(9);
  std::vector<std::uint8_t> data(64 * 1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const auto compressed = lz4lite_compress(data);
  expect_round_trip(data);
  EXPECT_LT(compressed.size(), data.size() + data.size() / 100 + 64);
}

TEST(Lz4Lite, OverlappingMatchRuns) {
  // "abcabcabc..." exercises overlapping copies (offset < match length).
  std::string s;
  for (int i = 0; i < 500; ++i) s += "abc";
  expect_round_trip(bytes(s));
}

TEST(Lz4Lite, LongLiteralRunsUseExtendedLengths) {
  // > 15 literals forces the 255-run length encoding.
  util::Xoshiro256 rng(10);
  std::vector<std::uint8_t> data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  expect_round_trip(data);
}

TEST(Lz4Lite, LongMatchesUseExtendedLengths) {
  std::vector<std::uint8_t> data = bytes(std::string(10000, 'z'));
  data[0] = 'a';  // one literal then a ~10k match
  expect_round_trip(data);
}

TEST(Lz4Lite, TelemetryRatiosTrackRedundancy) {
  util::Xoshiro256 rng(11);
  const auto redundant = telemetry_text(rng, 64 * 1024, 0.95);
  const auto fresh = telemetry_text(rng, 64 * 1024, 0.0);
  const double r_high = ratio(redundant);
  const double r_low = ratio(fresh);
  EXPECT_GT(r_high, 1.8 * r_low);
  EXPECT_GT(r_low, 1.0);  // templated text always has some structure
}

TEST(Lz4Lite, ChunkingReducesRatio) {
  // The paper's observation: "chunked data may reduce similarity ...
  // which in turn will reduce the effectiveness of compression."
  util::Xoshiro256 rng(12);
  const auto data = telemetry_text(rng, 256 * 1024, 0.9);
  const double whole = ratio(data);
  double chunked_compressed = 0.0;
  constexpr std::size_t kChunk = 1024;
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, data.size() - off);
    chunked_compressed += static_cast<double>(
        lz4lite_compress({data.data() + off, len}).size());
  }
  const double chunked = static_cast<double>(data.size()) / chunked_compressed;
  EXPECT_LT(chunked, whole);
  EXPECT_GT(chunked, 1.0);
}

TEST(Lz4Lite, DecompressRejectsTruncatedStream) {
  // Token promises 2 literals; only 1 byte follows.
  const std::vector<std::uint8_t> truncated{0x20, 'a'};
  EXPECT_THROW(lz4lite_decompress(truncated), util::PreconditionError);
  // Token promises a match; the stream ends inside the 2-byte offset.
  const std::vector<std::uint8_t> cut_offset{0x10, 'a', 0x01};
  EXPECT_THROW(lz4lite_decompress(cut_offset), util::PreconditionError);
}

TEST(Lz4Lite, DecompressRejectsBadOffset) {
  // token: 0 literals, match len 4; offset 0xFFFF with empty history.
  const std::vector<std::uint8_t> bogus{0x00, 0xFF, 0xFF};
  EXPECT_THROW(lz4lite_decompress(bogus), util::PreconditionError);
}

// Malformed input must produce a diagnostic, never a crash: every call
// returns or throws PreconditionError. Any other exception fails the test,
// and the sanitizer builds catch out-of-bounds reads and writes.
void decompress_or_reject(const std::vector<std::uint8_t>& in) {
  try {
    (void)lz4lite_decompress(in);
  } catch (const util::PreconditionError&) {
  }
}

TEST(Lz4Lite, DecompressMalformedInputFuzz) {
  util::Xoshiro256 rng(14);
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<std::uint8_t> noise(rng() % 4097);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    decompress_or_reject(noise);
  }
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t size = 1 + static_cast<std::size_t>(rng() % 4096);
    const auto valid =
        lz4lite_compress(telemetry_text(rng, size, rng.uniform01()));
    for (std::size_t len = 0; len < valid.size(); ++len) {
      decompress_or_reject({valid.begin(),
                            valid.begin() + static_cast<std::ptrdiff_t>(len)});
    }
    for (int m = 0; m < 200; ++m) {
      auto mutated = valid;
      mutated[rng() % mutated.size()] ^=
          static_cast<std::uint8_t>(1 + rng() % 255);
      decompress_or_reject(mutated);
    }
  }
}

TEST(Lz4Lite, RoundTripFuzz) {
  util::Xoshiro256 rng(13);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t size = static_cast<std::size_t>(rng() % 5000);
    const double redundancy = rng.uniform01();
    std::vector<std::uint8_t> data;
    if (size > 0) data = telemetry_text(rng, size, redundancy);
    expect_round_trip(data);
  }
}

}  // namespace
}  // namespace streamcalc::kernels
