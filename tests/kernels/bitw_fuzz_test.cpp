// Differential fuzz suite for the BITW stage kernels (label `property`).
//
// The library lz4lite compressor extends matches 8 bytes per compare and
// writes into a buffer sized once; its decoder checks each sequence as it
// decodes it, with 16- and 8-byte wild copies and pattern doubling, into a
// buffer that doubles on demand. The references below are the byte-serial
// algorithms they replaced: the compressed bytes must be identical, and
// the decoder must return the same bytes or throw the same
// PreconditionError. CBC runs on AES-NI where the CPU has it; it must
// agree with the portable table rounds. Budgets scale with
// STREAMCALC_FUZZ_CASES.
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

/// Appends one sequence: `literals`, then a match of `match_len` bytes
/// `offset` back (no match when match_len is 0: a final sequence).
void append_sequence(Bytes& stream, const Bytes& literals, std::size_t offset,
                     std::size_t match_len) {
  const std::size_t mcode = match_len == 0 ? 0 : match_len - kMinMatch;
  stream.push_back(static_cast<std::uint8_t>(
      std::min<std::size_t>(literals.size(), 15) << 4 |
      std::min<std::size_t>(mcode, 15)));
  if (literals.size() >= 15) {
    reference_emit_length(stream, literals.size() - 15);
  }
  stream.insert(stream.end(), literals.begin(), literals.end());
  if (match_len == 0) return;
  stream.push_back(static_cast<std::uint8_t>(offset & 0xFF));
  stream.push_back(static_cast<std::uint8_t>(offset >> 8));
  if (mcode >= 15) reference_emit_length(stream, mcode - 15);
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

/// expect_same_decoding on `stream` and on each of its proper prefixes
/// whose length is a multiple of `stride`.
void expect_same_decoding_when_cut(const Bytes& stream,
                                   std::size_t stride = 1) {
  for (std::size_t n = 0; n < stream.size(); n += stride) {
    expect_same_decoding(
        Bytes(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(n)));
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_decoding(stream);
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
    // Around the 64 KiB window.
    for (const std::size_t size : {65535u, 65536u, 65537u}) {
      expect_same_compression(telemetry_text(rng, size, redundancy));
    }
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
  for (const std::size_t size : {65535u, 65536u, 65537u}) {
    expect_same_compression(random_bytes(rng, size));
  }
  // A planted repeat of 4-40 bytes whose match ends 0-24 bytes before the
  // input end: the match extension's last compares run up to the end.
  for (std::size_t len = 4; len <= 40; ++len) {
    for (std::size_t gap = 0; gap <= 24; ++gap) {
      SCOPED_TRACE("repeat of " + std::to_string(len) + ", gap " +
                   std::to_string(gap));
      Bytes data = random_bytes(rng, 64 + len + gap);
      std::copy_n(data.begin() + 8, len,
                  data.end() - static_cast<std::ptrdiff_t>(len + gap));
      expect_same_compression(data);
      if (HasFatalFailure()) return;
    }
  }
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

  // Outputs that outgrow the decoder's first buffer, several times over
  // for the ~250x single-byte run.
  expect_same_decoding_when_cut(lz4lite_compress(Bytes(1 << 20, 'r')));
  for (const double redundancy : {0.0, 0.5, 1.0}) {
    const Bytes stream =
        lz4lite_compress(telemetry_text(rng, 64 * 1024, redundancy));
    expect_same_decoding_when_cut(
        stream, stream.size() / static_cast<std::size_t>(scaled_cases(200)) + 1);
  }
  if (HasFatalFailure()) return;

  // Hostile length bytes: 64 KiB of 0xFF is one literal length that never
  // ends; after a one-literal sequence header they are one match length
  // that never ends, or, terminated, one of about 16 MiB.
  Bytes hostile(64 * 1024, 0xFF);
  expect_same_decoding(hostile);
  std::copy_n(Bytes{0x1F, 'a', 0x01, 0x00}.begin(), 4, hostile.begin());
  expect_same_decoding(hostile);
  hostile.back() = 0x00;
  expect_same_decoding(hostile);
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
      append_sequence(stream, literals, offset, len);
      append_sequence(stream, {'x', 'y', 'z'}, 0, 0);

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

  // Streams of sequences the decoder's short path may take (0-14
  // literals, a match of 4-18 bytes at offset 1-32), ending in no final
  // sequence or in one of 0-40 literals, and cut at every length: a short
  // sequence sits at every distance from 0 to 40 bytes before the end.
  const int streams = scaled_cases(10);
  for (int c = 0; c < streams; ++c) {
    for (std::size_t tail = 0; tail <= 41; ++tail) {
      SCOPED_TRACE("stream " + std::to_string(c) + ", tail " +
                   std::to_string(tail));
      Bytes stream;
      append_sequence(stream, random_bytes(rng, 32), 1 + below(rng, 32),
                      4 + below(rng, 15));
      for (int i = 0; i < 12; ++i) {
        append_sequence(stream, random_bytes(rng, below(rng, 15)),
                        1 + below(rng, 32), 4 + below(rng, 15));
      }
      if (tail > 0) append_sequence(stream, random_bytes(rng, tail - 1), 0, 0);
      expect_same_decoding_when_cut(stream);
      if (HasFatalFailure()) return;
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
