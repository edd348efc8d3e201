// Differential fuzz suite for the BITW stage kernels (label `property`).
//
// The library lz4lite compressor extends matches 8 bytes per compare and
// writes into a buffer sized once; its decoder validates the whole stream,
// then decodes with 16- and 8-byte wild copies and pattern doubling. The
// references below are the byte-serial algorithms they replaced: the
// compressed bytes must be identical, and the decoder must return the same
// bytes or throw the same PreconditionError. CBC runs on AES-NI where the
// CPU has it; it must agree with the portable table rounds. Budgets scale
// with STREAMCALC_FUZZ_CASES.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernels/aes.hpp"
#include "kernels/aes_impl.hpp"
#include "kernels/lz4lite.hpp"
#include "kernels/testdata.hpp"
#include "testing/property.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::kernels {
namespace {

using streamcalc::testing::scaled_cases;
using util::Xoshiro256;
using Bytes = std::vector<std::uint8_t>;

std::uint64_t below(Xoshiro256& rng, std::uint64_t n) { return rng() % n; }

Bytes random_bytes(Xoshiro256& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

// ---------------------------------------------------------------------------
// Byte-serial lz4lite references

constexpr std::size_t kMinMatch = 4;

std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void reference_emit_length(Bytes& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

/// Greedy single-probe compressor: hash of 4 bytes into a 16Ki table,
/// 64 KiB window, byte-at-a-time match extension.
Bytes reference_compress(const Bytes& in) {
  Bytes out;
  std::vector<std::uint32_t> table(std::size_t{1} << 14, 0xFFFFFFFFu);
  std::size_t pos = 0;
  std::size_t literal_start = 0;
  const std::size_t match_limit = in.size() > 12 ? in.size() - 12 : 0;
  const auto emit = [&](std::size_t literals, std::size_t match_len,
                        std::size_t offset) {
    const std::size_t lit_nibble = std::min<std::size_t>(literals, 15);
    const bool has_match = match_len >= kMinMatch;
    const std::size_t mcode = has_match ? match_len - kMinMatch : 0;
    const std::size_t match_nibble = std::min<std::size_t>(mcode, 15);
    out.push_back(static_cast<std::uint8_t>(lit_nibble << 4 | match_nibble));
    if (lit_nibble == 15) reference_emit_length(out, literals - 15);
    for (std::size_t i = 0; i < literals; ++i) {
      out.push_back(in[literal_start + i]);
    }
    if (has_match) {
      out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      if (match_nibble == 15) reference_emit_length(out, mcode - 15);
    }
  };
  while (pos < match_limit) {
    const std::uint32_t v = load32(in.data() + pos);
    const std::uint32_t h = (v * 2654435761u) >> 18;
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(pos);
    if (cand != 0xFFFFFFFFu && pos - cand <= 65535 &&
        load32(in.data() + cand) == v) {
      std::size_t len = kMinMatch;
      while (pos + len < in.size() && in[cand + len] == in[pos + len]) ++len;
      emit(pos - literal_start, len, pos - cand);
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  emit(in.size() - literal_start, 0, 0);
  return out;
}

/// Sequence-at-a-time decoder that grows its output one byte per match
/// byte; throws PreconditionError with the library's messages.
Bytes reference_decompress(const Bytes& in) {
  Bytes out;
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    util::require(pos + n <= in.size(), "lz4lite: truncated stream");
  };
  const auto read_length = [&](std::size_t len) {
    if (len == 15) {
      std::uint8_t b;
      do {
        need(1);
        b = in[pos++];
        len += b;
      } while (b == 255);
    }
    return len;
  };
  while (pos < in.size()) {
    const std::uint8_t token = in[pos++];
    const std::size_t literals = read_length(token >> 4);
    need(literals);
    for (std::size_t i = 0; i < literals; ++i) out.push_back(in[pos++]);
    if (pos == in.size()) break;
    need(2);
    const std::size_t offset = in[pos] | std::size_t{in[pos + 1]} << 8;
    pos += 2;
    util::require(offset >= 1 && offset <= out.size(),
                  "lz4lite: match offset out of range");
    const std::size_t match_len = read_length(token & 0x0F) + kMinMatch;
    for (std::size_t i = 0; i < match_len; ++i) {
      out.push_back(out[out.size() - offset]);
    }
  }
  return out;
}

/// The match offsets of a valid stream, in order.
std::vector<std::size_t> match_offsets(const Bytes& stream) {
  std::vector<std::size_t> offsets;
  std::size_t pos = 0;
  const auto skip_length = [&](std::size_t len) {
    if (len == 15) {
      while (stream[pos++] == 255) len += 255;
      len += stream[pos - 1];
    }
    return len;
  };
  while (pos < stream.size()) {
    const std::uint8_t token = stream[pos++];
    pos += skip_length(token >> 4);
    if (pos == stream.size()) break;
    offsets.push_back(stream[pos] | std::size_t{stream[pos + 1]} << 8);
    pos += 2;
    skip_length(token & 0x0F);
  }
  return offsets;
}

void expect_same_compression(const Bytes& data) {
  const Bytes compressed = lz4lite_compress(data);
  ASSERT_EQ(compressed, reference_compress(data)) << "size " << data.size();
  ASSERT_EQ(lz4lite_decompress(compressed), data) << "size " << data.size();
}

/// What a decoder did with one stream: its output, or the message of the
/// PreconditionError it threw.
struct Outcome {
  Bytes out;
  std::string error;
  bool operator==(const Outcome&) const = default;
};

template <typename Decoder>
Outcome decode_with(Decoder decoder, const Bytes& stream) {
  try {
    return {decoder(stream), ""};
  } catch (const util::PreconditionError& e) {
    return {{}, e.what()};
  }
}

void expect_same_decoding(const Bytes& stream) {
  const Outcome got = decode_with(
      [](const Bytes& s) { return lz4lite_decompress(s); }, stream);
  const Outcome want = decode_with(reference_decompress, stream);
  ASSERT_EQ(got.error, want.error) << "stream of " << stream.size();
  ASSERT_EQ(got.out, want.out) << "stream of " << stream.size();
}

// ---------------------------------------------------------------------------
// Compressor

TEST(Lz4Fuzz, CompressMatchesReferenceOnTelemetry) {
  Xoshiro256 rng(0x1247E1);
  const int cases = scaled_cases(60);
  for (int c = 0; c < cases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    // Chunk sizes up to twice the 64 KiB window.
    const std::size_t size = below(rng, 128 * 1024);
    expect_same_compression(telemetry_text(rng, size, rng.uniform01()));
    if (HasFatalFailure()) return;
  }
  for (const double redundancy : {0.0, 0.5, 1.0}) {
    expect_same_compression(telemetry_text(rng, 64 * 1024, redundancy));
  }
}

TEST(Lz4Fuzz, CompressMatchesReferenceOnRandomBytesAndRuns) {
  Xoshiro256 rng(0x1247E2);
  const int cases = scaled_cases(60);
  for (int c = 0; c < cases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::size_t size = below(rng, 96 * 1024);
    expect_same_compression(random_bytes(rng, size));
    // Runs of a few symbols with random lengths: long and overlapping
    // matches, length extensions of every size.
    Bytes runs;
    const std::uint64_t alphabet = 1 + below(rng, 4);
    while (runs.size() < size) {
      runs.insert(runs.end(), below(rng, 2000),
                  static_cast<std::uint8_t>(below(rng, alphabet)));
    }
    expect_same_compression(runs);
    if (HasFatalFailure()) return;
  }
  expect_same_compression(Bytes(200 * 1024, 0x55));
}

TEST(Lz4Fuzz, CompressMatchesReferenceOnEverySmallSize) {
  Xoshiro256 rng(0x1247E3);
  for (std::size_t size = 0; size <= 13; ++size) {
    expect_same_compression(Bytes(size, 'a'));
    for (int i = 0; i < 20; ++i) {
      expect_same_compression(random_bytes(rng, size));
      Bytes few(size);
      for (auto& b : few) b = static_cast<std::uint8_t>(below(rng, 2));
      expect_same_compression(few);
    }
  }
}

TEST(Lz4Fuzz, MatchesReachTheEdgeOfTheWindow) {
  // Zeros with two blocks of nonzero bytes, one repeated 65535 and the
  // other 65536 bytes later: only the first repeat is inside the 2-byte
  // offset window, so only it may become a match.
  Xoshiro256 rng(0x1247E4);
  Bytes data(70 * 1024, 0);
  Bytes near = random_bytes(rng, 32);
  Bytes far = random_bytes(rng, 32);
  for (auto& b : near) b |= 1;
  for (auto& b : far) b |= 1;
  for (const std::ptrdiff_t at : {100, 100 + 65535}) {
    std::copy(near.begin(), near.end(), data.begin() + at);
  }
  for (const std::ptrdiff_t at : {300, 300 + 65536}) {
    std::copy(far.begin(), far.end(), data.begin() + at);
  }
  expect_same_compression(data);
  const std::vector<std::size_t> offsets =
      match_offsets(lz4lite_compress(data));
  EXPECT_NE(std::find(offsets.begin(), offsets.end(), 65535), offsets.end());
}

// ---------------------------------------------------------------------------
// Decoder

TEST(Lz4Fuzz, DecoderMatchesReferenceOnValidAndDamagedStreams) {
  Xoshiro256 rng(0x1247E5);
  const int cases = scaled_cases(40);
  for (int c = 0; c < cases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const Bytes valid = lz4lite_compress(
        telemetry_text(rng, 1 + below(rng, 8192), rng.uniform01()));
    expect_same_decoding(valid);
    for (int t = 0; t < 50; ++t) {
      expect_same_decoding(
          Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(
                                                   below(rng, valid.size()))));
    }
    for (int m = 0; m < 100; ++m) {
      Bytes mutated = valid;
      mutated[below(rng, mutated.size())] ^=
          static_cast<std::uint8_t>(1 + below(rng, 255));
      expect_same_decoding(mutated);
    }
    expect_same_decoding(random_bytes(rng, below(rng, 4097)));
    if (HasFatalFailure()) return;
  }
}

TEST(Lz4Fuzz, DecoderExpandsEveryOverlappingMatch) {
  // One sequence of `offset` literals and a match of `len` bytes at that
  // offset, then a final sequence of 3 literals: offsets below 8 take the
  // pattern doubling, 8-15 the 8-byte copies, 16 and up the 16-byte ones.
  Xoshiro256 rng(0x1247E6);
  for (std::size_t offset = 1; offset <= 32; ++offset) {
    for (std::size_t len = 4; len <= 300; ++len) {
      const Bytes literals = random_bytes(rng, offset);
      Bytes stream;
      const std::size_t mcode = len - kMinMatch;
      stream.push_back(static_cast<std::uint8_t>(
          std::min<std::size_t>(offset, 15) << 4 |
          std::min<std::size_t>(mcode, 15)));
      if (offset >= 15) reference_emit_length(stream, offset - 15);
      stream.insert(stream.end(), literals.begin(), literals.end());
      stream.push_back(static_cast<std::uint8_t>(offset));
      stream.push_back(0);
      if (mcode >= 15) reference_emit_length(stream, mcode - 15);
      stream.insert(stream.end(), {0x30, 'x', 'y', 'z'});

      Bytes want = literals;
      for (std::size_t i = 0; i < len; ++i) {
        want.push_back(literals[i % offset]);
      }
      want.insert(want.end(), {'x', 'y', 'z'});
      ASSERT_EQ(lz4lite_decompress(stream), want)
          << "offset " << offset << ", length " << len;
      ASSERT_EQ(reference_decompress(stream), want)
          << "offset " << offset << ", length " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// AES-CBC backends

TEST(AesCbcFuzz, AesNiMatchesPortableOnEveryTailLength) {
  if (!Aes::uses_aesni()) GTEST_SKIP() << "this CPU has no AES-NI";
  Xoshiro256 rng(0xAE5C);
  const int keys = scaled_cases(10);
  for (const std::size_t key_size : {std::size_t{16}, std::size_t{32}}) {
    for (int k = 0; k < keys; ++k) {
      const Aes aes(random_bytes(rng, key_size));
      // 0-40 blocks: none, part of, one and several 8-block groups, each
      // followed by every tail length.
      for (std::size_t blocks = 0; blocks <= 40; ++blocks) {
        SCOPED_TRACE("key size " + std::to_string(key_size) + ", key " +
                     std::to_string(k) + ", blocks " +
                     std::to_string(blocks));
        AesBlock iv{};
        for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
        const Bytes data = random_bytes(rng, 16 * blocks);
        const Bytes ct = AesCbc::encrypt_portable(aes, data, iv);
        ASSERT_EQ(AesCbc::encrypt_aesni(aes, data, iv), ct);
        ASSERT_EQ(AesCbc::decrypt_portable(aes, ct, iv), data);
        ASSERT_EQ(AesCbc::decrypt_aesni(aes, ct, iv), data);
        // Decrypting noise exercises the inverse rounds on every input.
        ASSERT_EQ(AesCbc::decrypt_aesni(aes, data, iv),
                  AesCbc::decrypt_portable(aes, data, iv));
      }
    }
  }
}

}  // namespace
}  // namespace streamcalc::kernels
