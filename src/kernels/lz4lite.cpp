#include "kernels/lz4lite.hpp"

#include <cstring>

#include "util/error.hpp"

namespace streamcalc::kernels {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kWindow = 65535;  // max 2-byte offset
constexpr int kHashBits = 14;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void emit_length(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

}  // namespace

std::vector<std::uint8_t> lz4lite_compress(std::span<const std::uint8_t> in) {
  std::vector<std::uint8_t> out;
  out.reserve(in.size() / 2 + 16);
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0xFFFFFFFFu);

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  // Stop the match search a little before the end so 4-byte loads stay in
  // bounds; the tail is emitted as literals.
  const std::size_t match_limit = in.size() > 12 ? in.size() - 12 : 0;

  auto emit_sequence = [&](std::size_t literals, std::size_t match_len,
                           std::size_t offset) {
    const std::uint8_t lit_nibble =
        literals >= 15 ? 15 : static_cast<std::uint8_t>(literals);
    const bool has_match = match_len >= kMinMatch;
    const std::size_t mcode = has_match ? match_len - kMinMatch : 0;
    const std::uint8_t match_nibble =
        has_match ? (mcode >= 15 ? 15 : static_cast<std::uint8_t>(mcode))
                  : 0;
    out.push_back(static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15) emit_length(out, literals - 15);
    out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(literal_start),
               in.begin() + static_cast<std::ptrdiff_t>(literal_start + literals));
    if (has_match) {
      out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
      out.push_back(static_cast<std::uint8_t>((offset >> 8) & 0xFF));
      if (match_nibble == 15) emit_length(out, mcode - 15);
    }
  };

  while (pos < match_limit) {
    const std::uint32_t v = load32(in.data() + pos);
    const std::uint32_t h = hash4(v);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(pos);
    if (cand != 0xFFFFFFFFu && pos - cand <= kWindow &&
        load32(in.data() + cand) == v) {
      // Extend the match as far as the data allows.
      std::size_t len = kMinMatch;
      while (pos + len < in.size() && in[cand + len] == in[pos + len]) {
        ++len;
      }
      emit_sequence(pos - literal_start, len, pos - cand);
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  // Final literals-only sequence (always present, even if empty).
  emit_sequence(in.size() - literal_start, 0, 0);
  return out;
}

std::vector<std::uint8_t> lz4lite_decompress(
    std::span<const std::uint8_t> in) {
  std::vector<std::uint8_t> out;
  out.reserve(in.size() * 2);
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    util::require(pos + n <= in.size(), "lz4lite: truncated stream");
  };
  const auto read_length = [&](std::size_t base) {
    std::size_t len = base;
    if (base == 15) {
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
    need(1);
    const std::uint8_t token = in[pos++];
    const std::size_t literals = read_length(token >> 4);
    need(literals);
    out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(pos),
               in.begin() + static_cast<std::ptrdiff_t>(pos + literals));
    pos += literals;
    if (pos == in.size()) break;  // final sequence: literals only

    need(2);
    const std::size_t offset =
        static_cast<std::size_t>(in[pos]) |
        (static_cast<std::size_t>(in[pos + 1]) << 8);
    pos += 2;
    util::require(offset >= 1 && offset <= out.size(),
                  "lz4lite: match offset out of range");
    const std::size_t match_len = read_length(token & 0x0F) + kMinMatch;
    const std::size_t end = out.size();
    const std::size_t src = end - offset;
    if (offset >= match_len) {
      out.resize(end + match_len);
      std::memcpy(out.data() + end, out.data() + src, match_len);
    } else {
      // Overlapping copies are valid (and common for runs): each byte may
      // read one written earlier in the same match, so copy bytewise.
      for (std::size_t i = 0; i < match_len; ++i) {
        out.push_back(out[src + i]);
      }
    }
  }
  return out;
}

double lz4lite_ratio(std::span<const std::uint8_t> in) {
  util::require(!in.empty(), "lz4lite_ratio requires non-empty input");
  const auto compressed = lz4lite_compress(in);
  return static_cast<double>(in.size()) /
         static_cast<double>(compressed.size());
}

}  // namespace streamcalc::kernels
