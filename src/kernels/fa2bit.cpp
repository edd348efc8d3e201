#include "kernels/fa2bit.hpp"

#include <array>
#include <cstring>
#include <utility>

#include "kernels/cpu.hpp"
#include "kernels/scan_impl.hpp"
#include "util/error.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace streamcalc::kernels {

namespace {

// Character classes: a base code 0-3, or one of the special classes below.
// Every special class has bit 2 set, so OR-ing classes and testing that
// bit tells whether all of them are plain bases.
constexpr std::uint8_t kAmbiguous = 4;  ///< counted, packed as A
constexpr std::uint8_t kSkip = 5;       ///< whitespace between bases
constexpr std::uint8_t kHeader = 6;     ///< '>' opens a header line
constexpr std::uint8_t kSpecialBit = 4;

constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(kAmbiguous);
  constexpr char kBases[] = "ACGT";
  for (std::uint8_t code = 0; code < 4; ++code) {
    const auto upper = static_cast<unsigned char>(kBases[code]);
    t[upper] = code;
    t[upper + ('a' - 'A')] = code;
  }
  for (const char c : {'\n', '\r', ' ', '\t'}) {
    t[static_cast<unsigned char>(c)] = kSkip;
  }
  t[static_cast<unsigned char>('>')] = kHeader;
  return t;
}();

// Two characters at a time: the pair's base codes (first in the low bits),
// or kSpecialPair when either character is not a plain base. Indexed by
// the first character plus 256 times the second. Real sequence text
// touches a few cache lines of its 64 KiB, which are built from kClass on
// first use rather than at compile time.
constexpr std::uint8_t kSpecialPair = 0x10;

struct PairTable {
  std::array<std::uint8_t, 65536> code{};

  PairTable() {
    for (std::size_t i = 0; i < code.size(); ++i) {
      const std::uint8_t first = kClass[i & 0xFF];
      const std::uint8_t second = kClass[i >> 8];
      code[i] = (first | second) & kSpecialBit
                    ? kSpecialPair
                    : static_cast<std::uint8_t>(first | second << 2);
    }
  }

  unsigned at(const char* p) const {
    return code[static_cast<unsigned char>(p[0]) |
                static_cast<std::size_t>(static_cast<unsigned char>(p[1]))
                    << 8];
  }
};

const PairTable& pair_table() {
  static const PairTable table;
  return table;
}

#if defined(__x86_64__)
// Converts whole 32-character blocks of plain bases from the `n`
// characters at `p`, 8 output bytes per block into `dst`, and stops at
// the first block that holds any other byte. Returns the blocks converted.
//
// A character c is a plain base iff c & 0xDF (upper-cased; it never
// equals 0xFF) equals the base letter with the same low nibble: A, C, T
// and G have the distinct nibbles 1, 3, 4 and 7, and every other nibble
// maps to 0xFF. The same nibble indexes the base codes, which two
// multiply-adds weight by 1, 4, 16 and 64 within each group of four.
__attribute__((target("avx2"))) std::size_t pack_plain_blocks_avx2(
    const char* p, std::size_t n, std::uint8_t* dst) {
  constexpr char kNone = static_cast<char>(0xFF);
  const __m256i upper_mask = _mm256_set1_epi8(static_cast<char>(0xDF));
  const __m256i nibble_mask = _mm256_set1_epi8(0x0F);
  const __m256i letters = _mm256_setr_epi8(
      kNone, 'A', kNone, 'C', 'T', kNone, kNone, 'G', kNone, kNone, kNone,
      kNone, kNone, kNone, kNone, kNone, kNone, 'A', kNone, 'C', 'T', kNone,
      kNone, 'G', kNone, kNone, kNone, kNone, kNone, kNone, kNone, kNone);
  const __m256i codes = _mm256_setr_epi8(0, 0, 0, 1, 3, 0, 0, 2, 0, 0, 0, 0,
                                         0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 2,
                                         0, 0, 0, 0, 0, 0, 0, 0);
  const __m256i pair_weights = _mm256_set1_epi16(0x0401);    // bytes 1, 4
  const __m256i quad_weights = _mm256_set1_epi32(0x00100001);  // 1, 16
  // Byte 0 of each 32-bit group to the low 4 bytes of its lane, then the
  // low dwords of both lanes next to each other.
  const __m256i gather_bytes = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 4, 8,
      12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i gather_lanes = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
  std::size_t blocks = 0;
  for (; n - 32 * blocks >= 32; ++blocks) {
    const __m256i text = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(p + 32 * blocks));
    const __m256i upper = _mm256_and_si256(text, upper_mask);
    const __m256i nibble = _mm256_and_si256(text, nibble_mask);
    const __m256i plain =
        _mm256_cmpeq_epi8(_mm256_shuffle_epi8(letters, nibble), upper);
    if (_mm256_movemask_epi8(plain) != -1) break;
    const __m256i pairs =
        _mm256_maddubs_epi16(_mm256_shuffle_epi8(codes, nibble), pair_weights);
    const __m256i quads = _mm256_madd_epi16(pairs, quad_weights);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_shuffle_epi8(quads, gather_bytes), gather_lanes);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 8 * blocks),
                     _mm256_castsi256_si128(packed));
  }
  return blocks;
}
#endif

}  // namespace

void Fa2Bit::feed(std::string_view chunk) { feed_with(chunk, uses_avx2()); }

void BlastScan::feed_portable(Fa2Bit& conv, std::string_view chunk) {
  conv.feed_with(chunk, false);
}

void BlastScan::feed_avx2(Fa2Bit& conv, std::string_view chunk) {
  util::require(uses_avx2(), "Fa2Bit::feed: this CPU has no AVX2");
  conv.feed_with(chunk, true);
}

void Fa2Bit::feed_with(std::string_view chunk, [[maybe_unused]] bool avx2) {
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  // Each output byte consumes four input characters: size the buffer for
  // the most bytes this chunk can complete, and trim it on the way out.
  std::size_t out = packed_.size();
  packed_.resize(out + (static_cast<std::size_t>(pending_count_) +
                        chunk.size()) / 4);
  std::uint8_t* const dst = packed_.data();
  const PairTable& pairs = pair_table();

  while (p != end) {
    if (in_header_) {
      const void* newline =
          std::memchr(p, '\n', static_cast<std::size_t>(end - p));
      if (newline == nullptr) break;
      p = static_cast<const char*>(newline) + 1;
      in_header_ = false;
      continue;
    }
    // Fast path: on a byte boundary, four plain bases (two table pairs)
    // make one byte; with AVX2, 32 plain bases make 8 bytes first. The
    // buffer holds a byte for every 4 characters left, so whole blocks
    // always fit.
    if (pending_count_ == 0) {
      const std::size_t out_before = out;
#if defined(__x86_64__)
      if (avx2) {
        const std::size_t blocks = pack_plain_blocks_avx2(
            p, static_cast<std::size_t>(end - p), dst + out);
        p += 32 * blocks;
        out += 8 * blocks;
      }
#endif
      while (end - p >= 4) {
        const unsigned low = pairs.at(p);
        const unsigned high = pairs.at(p + 2);
        if ((low | high) & kSpecialPair) break;
        dst[out++] = static_cast<std::uint8_t>(low | high << 4);
        p += 4;
      }
      bases_ += 4 * (out - out_before);
      if (p == end) break;
    }
    std::uint8_t code = kClass[static_cast<unsigned char>(*p++)];
    if (code == kHeader) {
      in_header_ = true;
      continue;
    }
    if (code == kSkip) continue;
    if (code == kAmbiguous) {
      ++ambiguous_;
      code = 0;  // mask ambiguous bases to A
    }
    pending_ = static_cast<std::uint8_t>(
        pending_ | (code << (2 * pending_count_)));
    if (++pending_count_ == 4) {
      dst[out++] = pending_;
      pending_ = 0;
      pending_count_ = 0;
    }
    ++bases_;
  }
  packed_.resize(out);
}

void Fa2Bit::finish() {
  if (pending_count_ > 0) {
    packed_.push_back(pending_);
    pending_ = 0;
    pending_count_ = 0;
  }
}

std::vector<std::uint8_t> fa2bit(std::string_view fasta) {
  Fa2Bit conv;
  conv.feed(fasta);
  conv.finish();
  return std::move(conv).packed();
}

std::vector<char> unpack_2bit(std::span<const std::uint8_t> packed,
                              std::uint64_t bases) {
  util::require(bases <= packed.size() * 4,
                "unpack_2bit: more bases requested than packed data holds");
  static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  std::vector<char> out;
  out.reserve(bases);
  for (std::uint64_t i = 0; i < bases; ++i) {
    const std::uint8_t byte = packed[i / 4];
    out.push_back(kBases[(byte >> (2 * (i % 4))) & 0x3]);
  }
  return out;
}

}  // namespace streamcalc::kernels
