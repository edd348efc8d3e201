#include "kernels/lz4lite.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "util/error.hpp"

namespace streamcalc::kernels {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kWindow = 65535;  // max 2-byte offset
constexpr int kHashBits = 14;
// The decoder's wild copies move whole 16-byte words, so they touch up to
// this many bytes past the end of a literal run or match; its output
// buffer has this much slack.
constexpr std::size_t kWildSlack = 16;
// The decoder's first output buffer, in bytes per input byte (telemetry
// compresses 2.5-4.5x); it doubles when a sequence would not fit.
constexpr std::size_t kGrowthStart = 4;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::size_t read_offset(const std::uint8_t* p) {
  return static_cast<std::size_t>(p[0]) | static_cast<std::size_t>(p[1]) << 8;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Number of equal leading bytes (in memory order) of two 8-byte loads
/// whose XOR is `diff` != 0.
std::size_t equal_prefix_bytes(std::uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<std::size_t>(std::countl_zero(diff)) / 8;
  }
}

/// Length of the common prefix of the bytes at `a` and at `b`, where `b`
/// may run up to `end` and `a` precedes `b`; 8 bytes per compare.
std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                          const std::uint8_t* end) {
  const std::uint8_t* const start = b;
  while (end - b >= 8) {
    const std::uint64_t diff = load64(a) ^ load64(b);
    if (diff != 0) {
      return static_cast<std::size_t>(b - start) + equal_prefix_bytes(diff);
    }
    a += 8;
    b += 8;
  }
  while (b < end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(b - start);
}

std::uint8_t* emit_length(std::uint8_t* op, std::size_t len) {
  for (; len >= 255; len -= 255) *op++ = 255;
  *op++ = static_cast<std::uint8_t>(len);
  return op;
}

/// Copies `len` bytes in whole `Word`-byte steps, at least one: up to
/// Word bytes past both ranges are read and written. Each step reads only
/// bytes written before it when dst - src >= Word.
template <std::size_t Word>
void wild_copy(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  std::size_t i = 0;
  do {
    std::memcpy(dst + i, src + i, Word);
    i += Word;
  } while (i < len);
}

/// Appends a match of `len` bytes starting `offset` bytes back from `op`.
void copy_match(std::uint8_t* op, std::size_t offset, std::size_t len) {
  const std::uint8_t* const src = op - offset;
  if (offset >= 16) {
    wild_copy<16>(op, src, len);
  } else if (offset >= 8) {
    wild_copy<8>(op, src, len);
  } else {
    // Pattern doubling: [src, op + done) repeats with period `offset`, and
    // `done` stays a whole number of periods, so each copy from src is
    // exact and its source ends where its destination begins.
    std::size_t done = 0;
    while (done < len) {
      const std::size_t step = std::min(offset + done, len - done);
      std::memcpy(op + done, src, step);
      done += step;
    }
  }
}

}  // namespace

std::vector<std::uint8_t> lz4lite_compress(std::span<const std::uint8_t> in) {
  const std::size_t n = in.size();
  const std::uint8_t* const src = in.data();
  // Worst case: all literals, one length byte per 255 of them, the token.
  // Not zero-filled: the used prefix is copied out at the end.
  const std::size_t cap = n + n / 255 + 16;
  const auto out = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
  std::uint8_t* op = out.get();
  std::uint8_t* const out_end = op + cap;
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0xFFFFFFFFu);

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  // Stop the match search a little before the end so 4-byte loads stay in
  // bounds; the tail is emitted as literals.
  const std::size_t match_limit = n > 12 ? n - 12 : 0;

  auto emit_sequence = [&](std::size_t literals, std::size_t match_len,
                           std::size_t offset) {
    const std::uint8_t lit_nibble =
        literals >= 15 ? 15 : static_cast<std::uint8_t>(literals);
    const bool has_match = match_len >= kMinMatch;
    const std::size_t mcode = has_match ? match_len - kMinMatch : 0;
    const std::uint8_t match_nibble =
        has_match ? (mcode >= 15 ? 15 : static_cast<std::uint8_t>(mcode))
                  : 0;
    *op++ = static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble);
    if (lit_nibble == 15) op = emit_length(op, literals - 15);
    // Short runs (the common case) copy one whole word when both buffers
    // have room for it.
    if (literals <= 16 && n - literal_start >= 16 &&
        static_cast<std::size_t>(out_end - op) >= 16) {
      std::memcpy(op, src + literal_start, 16);
    } else if (literals != 0) {
      std::memcpy(op, src + literal_start, literals);
    }
    op += literals;
    if (has_match) {
      *op++ = static_cast<std::uint8_t>(offset & 0xFF);
      *op++ = static_cast<std::uint8_t>((offset >> 8) & 0xFF);
      if (match_nibble == 15) op = emit_length(op, mcode - 15);
    }
  };

  // h is the hash of the 4 bytes at pos.
  std::uint32_t h = pos < match_limit ? hash4(load32(src)) : 0;
  while (pos < match_limit) {
    const std::uint32_t v = load32(src + pos);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(pos);
    // The next position's hash does not wait for the candidate test.
    const std::uint32_t next_h = hash4(load32(src + pos + 1));
    if (cand != 0xFFFFFFFFu && pos - cand <= kWindow &&
        load32(src + cand) == v) {
      // Extend the match as far as the data allows.
      const std::size_t len =
          kMinMatch + common_prefix(src + cand + kMinMatch,
                                    src + pos + kMinMatch, src + n);
      emit_sequence(pos - literal_start, len, pos - cand);
      pos += len;
      literal_start = pos;
      if (pos < match_limit) h = hash4(load32(src + pos));
    } else {
      ++pos;
      h = next_h;
    }
  }
  // Final literals-only sequence (always present, even if empty).
  emit_sequence(n - literal_start, 0, 0);
  return std::vector<std::uint8_t>(out.get(), op);
}

std::vector<std::uint8_t> lz4lite_decompress(
    std::span<const std::uint8_t> in) {
  const std::uint8_t* ip = in.data();
  const std::uint8_t* const end = ip + in.size();
  // One pass: every check runs as its sequence is decoded, in stream
  // order. The decoded size is unknown until the last sequence, so `out`
  // grows by doubling; `limit` is its end less the wild-copy slack, and
  // `op` never passes it. `base` and `limit` are locals because the byte
  // stores below may alias the vector's own pointers.
  std::vector<std::uint8_t> out(kGrowthStart * in.size() + kWildSlack);
  std::uint8_t* base = out.data();
  std::uint8_t* limit = base + out.size() - kWildSlack;
  std::uint8_t* op = base;
  // Makes room for `n` more bytes past `op`, plus the slack.
  const auto reserve = [&](std::size_t n) {
    if (static_cast<std::size_t>(limit - op) >= n) return;
    const std::size_t size = static_cast<std::size_t>(op - base);
    out.resize(std::max(2 * out.size(), size + n + kWildSlack));
    base = out.data();
    limit = base + out.size() - kWildSlack;
    op = base + size;
  };
  const auto need = [&](std::size_t n) {
    util::require(static_cast<std::size_t>(end - ip) >= n,
                  "lz4lite: truncated stream");
  };
  const auto read_length = [&](std::size_t len) {
    if (len == 15) {
      std::uint8_t b;
      do {
        need(1);
        b = *ip++;
        len += b;
      } while (b == 255);
    }
    return len;
  };

  while (ip < end) {
    const std::uint8_t token = *ip++;
    const std::size_t lit_code = token >> 4;
    const std::size_t match_code = token & 0x0F;
    // At most 14 literals with 16 stream bytes after them: one 16-byte
    // copy, and the stream goes on with a match offset. The copies below
    // write into the slack, and op advances less than the room checked.
    if (lit_code < 15 && end - ip >= 16 &&
        static_cast<std::size_t>(limit - op) >= 16) {
      std::memcpy(op, ip, 16);
      op += lit_code;
      ip += lit_code;
    } else {
      const std::size_t literals = read_length(lit_code);
      need(literals);
      reserve(literals);
      // A wild copy may read past the literals, not past the stream.
      if (static_cast<std::size_t>(end - ip) >= literals + kWildSlack) {
        wild_copy<16>(op, ip, literals);
      } else {
        std::memcpy(op, ip, literals);
      }
      ip += literals;
      op += literals;
      if (ip == end) break;  // final sequence: literals only
      need(2);
    }

    const std::size_t offset = read_offset(ip);
    ip += 2;
    // A match of at most 18 bytes from at least 16 back: two 16-byte
    // copies, the second reading only bytes the first wrote or older.
    if (match_code < 15 && offset >= 16 &&
        offset <= static_cast<std::size_t>(op - base) &&
        static_cast<std::size_t>(limit - op) >= 32) {
      std::memcpy(op, op - offset, 16);
      std::memcpy(op + 16, op - offset + 16, 16);
      op += match_code + kMinMatch;
      continue;
    }
    util::require(offset >= 1 && offset <= static_cast<std::size_t>(op - base),
                  "lz4lite: match offset out of range");
    const std::size_t match_len = read_length(match_code) + kMinMatch;
    reserve(match_len);
    copy_match(op, offset, match_len);
    op += match_len;
  }
  out.resize(static_cast<std::size_t>(op - base));
  return out;
}

}  // namespace streamcalc::kernels
