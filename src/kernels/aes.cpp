#include "kernels/aes.hpp"

#include <cstddef>

#include "kernels/aes_impl.hpp"
#include "util/error.hpp"

#if defined(__x86_64__)
#include <emmintrin.h>
#include <wmmintrin.h>
#endif

namespace streamcalc::kernels {

namespace {

using ByteTable = std::array<std::uint8_t, 256>;
using WordTable = std::array<std::uint32_t, 256>;
using RoundTables = std::array<WordTable, 4>;

constexpr ByteTable kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[15] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36,
                                    0x6c, 0xd8, 0xab, 0x4d, 0x9a};

constexpr ByteTable kInvSbox = [] {
  ByteTable t{};
  for (std::size_t i = 0; i < 256; ++i) {
    t[kSbox[i]] = static_cast<std::uint8_t>(i);
  }
  return t;
}();

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// State and round keys are column words: row r of a column is byte
// 3 - r of the word (big-endian), matching the FIPS-197 byte order.
constexpr std::uint32_t column(std::uint8_t r0, std::uint8_t r1,
                               std::uint8_t r2, std::uint8_t r3) {
  return (static_cast<std::uint32_t>(r0) << 24) |
         (static_cast<std::uint32_t>(r1) << 16) |
         (static_cast<std::uint32_t>(r2) << 8) | r3;
}

// Table r maps a byte of state row r to its whole contribution to the
// output column: the S-box result times the MixColumns matrix column r.
// Matrix column r is column 0 rotated down by r rows.
constexpr RoundTables with_rotations(const WordTable& t0) {
  RoundTables t{};
  t[0] = t0;
  for (std::size_t r = 1; r < 4; ++r) {
    for (std::size_t x = 0; x < 256; ++x) {
      t[r][x] = (t[r - 1][x] >> 8) | (t[r - 1][x] << 24);
    }
  }
  return t;
}

// Te: SubBytes + MixColumns, matrix column (2, 1, 1, 3).
constexpr RoundTables kTe = with_rotations([] {
  WordTable t{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t s2 = xtime(s);
    t[x] = column(s2, s, s, static_cast<std::uint8_t>(s2 ^ s));
  }
  return t;
}());

// Td: InvSubBytes + InvMixColumns, matrix column (14, 9, 13, 11).
constexpr RoundTables kTd = with_rotations([] {
  WordTable t{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint8_t s = kInvSbox[x];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s4 = xtime(s2);
    const std::uint8_t s8 = xtime(s4);
    t[x] = column(static_cast<std::uint8_t>(s8 ^ s4 ^ s2),
                  static_cast<std::uint8_t>(s8 ^ s),
                  static_cast<std::uint8_t>(s8 ^ s4 ^ s),
                  static_cast<std::uint8_t>(s8 ^ s2 ^ s));
  }
  return t;
}());

using State = std::array<std::uint32_t, 4>;

State load(const std::uint8_t* p) {
  State s{};
  for (std::size_t c = 0; c < 4; ++c, p += 4) {
    s[c] = column(p[0], p[1], p[2], p[3]);
  }
  return s;
}

void store(const State& s, std::uint8_t* p) {
  for (const std::uint32_t w : s) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      *p++ = static_cast<std::uint8_t>(w >> shift);
    }
  }
}

// One output column of a middle round: rows 0-3 are taken from columns
// a-d, which is where (Inv)ShiftRows moves them from.
std::uint32_t round_column(const RoundTables& t, std::uint32_t a,
                           std::uint32_t b, std::uint32_t c,
                           std::uint32_t d, std::uint32_t key) {
  return t[0][a >> 24] ^ t[1][(b >> 16) & 0xff] ^ t[2][(c >> 8) & 0xff] ^
         t[3][d & 0xff] ^ key;
}

// The final round has no (Inv)MixColumns: S-box bytes only.
std::uint32_t final_column(const ByteTable& sbox, std::uint32_t a,
                           std::uint32_t b, std::uint32_t c,
                           std::uint32_t d, std::uint32_t key) {
  return column(sbox[a >> 24], sbox[(b >> 16) & 0xff],
                sbox[(c >> 8) & 0xff], sbox[d & 0xff]) ^
         key;
}

// ShiftRows takes row r of output column c from column c + r.
State encrypt_state(State s, const std::uint32_t* rk, int rounds) {
  for (std::size_t c = 0; c < 4; ++c) s[c] ^= rk[c];
  for (int r = 1; r < rounds; ++r) {
    rk += 4;
    s = {round_column(kTe, s[0], s[1], s[2], s[3], rk[0]),
         round_column(kTe, s[1], s[2], s[3], s[0], rk[1]),
         round_column(kTe, s[2], s[3], s[0], s[1], rk[2]),
         round_column(kTe, s[3], s[0], s[1], s[2], rk[3])};
  }
  rk += 4;
  return {final_column(kSbox, s[0], s[1], s[2], s[3], rk[0]),
          final_column(kSbox, s[1], s[2], s[3], s[0], rk[1]),
          final_column(kSbox, s[2], s[3], s[0], s[1], rk[2]),
          final_column(kSbox, s[3], s[0], s[1], s[2], rk[3])};
}

// FIPS-197 §5.3.5 equivalent inverse cipher over the decrypt schedule;
// InvShiftRows takes row r of output column c from column c - r.
State decrypt_state(State s, const std::uint32_t* rk, int rounds) {
  for (std::size_t c = 0; c < 4; ++c) s[c] ^= rk[c];
  for (int r = 1; r < rounds; ++r) {
    rk += 4;
    s = {round_column(kTd, s[0], s[3], s[2], s[1], rk[0]),
         round_column(kTd, s[1], s[0], s[3], s[2], rk[1]),
         round_column(kTd, s[2], s[1], s[0], s[3], rk[2]),
         round_column(kTd, s[3], s[2], s[1], s[0], rk[3])};
  }
  rk += 4;
  return {final_column(kInvSbox, s[0], s[3], s[2], s[1], rk[0]),
          final_column(kInvSbox, s[1], s[0], s[3], s[2], rk[1]),
          final_column(kInvSbox, s[2], s[1], s[0], s[3], rk[2]),
          final_column(kInvSbox, s[3], s[2], s[1], s[0], rk[3])};
}

std::uint32_t sub_word(std::uint32_t w) {
  return column(kSbox[w >> 24], kSbox[(w >> 16) & 0xff],
                kSbox[(w >> 8) & 0xff], kSbox[w & 0xff]);
}

// InvMixColumns of one column: Td folds in InvSubBytes, so undo it first.
std::uint32_t inv_mix_column(std::uint32_t w) {
  return kTd[0][kSbox[w >> 24]] ^ kTd[1][kSbox[(w >> 16) & 0xff]] ^
         kTd[2][kSbox[(w >> 8) & 0xff]] ^ kTd[3][kSbox[w & 0xff]];
}

// The output buffer of a CBC pass; CBC moves whole blocks only.
std::vector<std::uint8_t> whole_blocks_out(std::span<const std::uint8_t> data,
                                           const char* message) {
  util::require(data.size() % 16 == 0, message);
  return std::vector<std::uint8_t>(data.size());
}

#if defined(__x86_64__)
struct NiRoundKeys {
  __m128i k[15];
};

// An aesenc/aesdec round key is the round's 16 key bytes in FIPS-197
// order; the schedules hold them as big-endian words, so swap each word.
NiRoundKeys ni_round_keys(const std::array<std::uint32_t, 60>& words,
                          int rounds) {
  NiRoundKeys keys{};
  for (int r = 0; r <= rounds; ++r) {
    const std::uint32_t* w = words.data() + 4 * r;
    keys.k[r] = _mm_set_epi32(
        static_cast<int>(__builtin_bswap32(w[3])),
        static_cast<int>(__builtin_bswap32(w[2])),
        static_cast<int>(__builtin_bswap32(w[1])),
        static_cast<int>(__builtin_bswap32(w[0])));
  }
  return keys;
}

__m128i load_block(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

void store_block(__m128i b, std::uint8_t* p) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), b);
}

// CBC encrypt is serial: each block's input is the previous ciphertext.
__attribute__((target("aes"))) void ni_cbc_encrypt(
    const NiRoundKeys& keys, int rounds, std::span<const std::uint8_t> data,
    const AesBlock& iv, std::uint8_t* out) {
  const __m128i* k = keys.k;
  __m128i chain = load_block(iv.data());
  for (std::size_t off = 0; off < data.size(); off += 16) {
    __m128i b = _mm_xor_si128(_mm_xor_si128(load_block(data.data() + off),
                                            chain),
                              k[0]);
    for (int r = 1; r < rounds; ++r) {
      b = _mm_aesenc_si128(b, k[r]);
    }
    chain = _mm_aesenclast_si128(b, k[rounds]);
    store_block(chain, out + off);
  }
}

// CBC decrypt has no dependency between blocks, so kLanes blocks go
// through each round together to hide the aesdec latency; the tail of
// fewer than kLanes blocks goes one at a time.
__attribute__((target("aes"))) void ni_cbc_decrypt(
    const NiRoundKeys& keys, int rounds, std::span<const std::uint8_t> data,
    const AesBlock& iv, std::uint8_t* out) {
  constexpr std::size_t kLanes = 8;
  const __m128i* k = keys.k;
  const std::uint8_t* in = data.data();
  const std::size_t n = data.size();
  const auto last = static_cast<std::size_t>(rounds);
  __m128i prev = load_block(iv.data());
  std::size_t off = 0;
  for (; n - off >= 16 * kLanes; off += 16 * kLanes) {
    __m128i c[kLanes];
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) {
      c[i] = load_block(in + off + 16 * i);
      b[i] = _mm_xor_si128(c[i], k[0]);
    }
    for (std::size_t r = 1; r < last; ++r) {
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kLanes; ++i) {
        b[i] = _mm_aesdec_si128(b[i], k[r]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) {
      b[i] = _mm_aesdeclast_si128(b[i], k[last]);
      store_block(_mm_xor_si128(b[i], i == 0 ? prev : c[i - 1]),
                  out + off + 16 * i);
    }
    prev = c[kLanes - 1];
  }
  for (; off < n; off += 16) {
    const __m128i c = load_block(in + off);
    __m128i b = _mm_xor_si128(c, k[0]);
    for (std::size_t r = 1; r < last; ++r) b = _mm_aesdec_si128(b, k[r]);
    b = _mm_aesdeclast_si128(b, k[last]);
    store_block(_mm_xor_si128(b, prev), out + off);
    prev = c;
  }
}
#endif

}  // namespace

Aes::Aes(std::span<const std::uint8_t> key) {
  util::require(key.size() == 16 || key.size() == 32,
                "Aes requires a 16-byte (AES-128) or 32-byte (AES-256) key");
  const std::size_t nk = key.size() / 4;
  rounds_ = static_cast<int>(nk) + 6;
  const std::size_t total_words = 4 * (nk + 7);

  for (std::size_t i = 0; i < nk; ++i) {
    enc_keys_[i] = column(key[4 * i], key[4 * i + 1], key[4 * i + 2],
                          key[4 * i + 3]);
  }
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = enc_keys_[i - 1];
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      temp = sub_word((temp << 8) | (temp >> 24)) ^
             (static_cast<std::uint32_t>(kRcon[i / nk - 1]) << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    enc_keys_[i] = enc_keys_[i - nk] ^ temp;
  }

  // Equivalent inverse cipher schedule: round keys in reverse order, with
  // InvMixColumns applied to all but the first and last.
  const std::size_t last = total_words - 4;
  for (std::size_t i = 0; i < total_words; i += 4) {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::uint32_t w = enc_keys_[last - i + c];
      dec_keys_[i + c] = (i == 0 || i == last) ? w : inv_mix_column(w);
    }
  }
}

AesBlock Aes::encrypt_block(const AesBlock& in) const {
  AesBlock out{};
  store(encrypt_state(load(in.data()), enc_keys_.data(), rounds_),
        out.data());
  return out;
}

AesBlock Aes::decrypt_block(const AesBlock& in) const {
  AesBlock out{};
  store(decrypt_state(load(in.data()), dec_keys_.data(), rounds_),
        out.data());
  return out;
}

std::vector<std::uint8_t> Aes::cbc_encrypt(std::span<const std::uint8_t> data,
                                           const AesBlock& iv) const {
  return uses_aesni() ? AesCbc::encrypt_aesni(*this, data, iv)
                      : AesCbc::encrypt_portable(*this, data, iv);
}

std::vector<std::uint8_t> Aes::cbc_decrypt(std::span<const std::uint8_t> data,
                                           const AesBlock& iv) const {
  return uses_aesni() ? AesCbc::decrypt_aesni(*this, data, iv)
                      : AesCbc::decrypt_portable(*this, data, iv);
}

bool Aes::uses_aesni() {
#if defined(__x86_64__)
  static const bool has_aes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") != 0;
  }();
  return has_aes;
#else
  return false;
#endif
}

std::vector<std::uint8_t> AesCbc::encrypt_portable(
    const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv) {
  std::vector<std::uint8_t> out = whole_blocks_out(
      data, "cbc_encrypt requires a multiple of 16 bytes");
  State chain = load(iv.data());
  for (std::size_t off = 0; off < data.size(); off += 16) {
    State s = load(data.data() + off);
    for (std::size_t c = 0; c < 4; ++c) s[c] ^= chain[c];
    chain = encrypt_state(s, aes.enc_keys_.data(), aes.rounds_);
    store(chain, out.data() + off);
  }
  return out;
}

std::vector<std::uint8_t> AesCbc::decrypt_portable(
    const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv) {
  std::vector<std::uint8_t> out = whole_blocks_out(
      data, "cbc_decrypt requires a multiple of 16 bytes");
  for (std::size_t off = 0; off < data.size(); off += 16) {
    State s = decrypt_state(load(data.data() + off), aes.dec_keys_.data(),
                            aes.rounds_);
    const State prev = load(off == 0 ? iv.data() : data.data() + off - 16);
    for (std::size_t c = 0; c < 4; ++c) s[c] ^= prev[c];
    store(s, out.data() + off);
  }
  return out;
}

std::vector<std::uint8_t> AesCbc::encrypt_aesni(
    const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv) {
  std::vector<std::uint8_t> out = whole_blocks_out(
      data, "cbc_encrypt requires a multiple of 16 bytes");
  util::require(Aes::uses_aesni(), "cbc_encrypt: this CPU has no AES-NI");
#if defined(__x86_64__)
  ni_cbc_encrypt(ni_round_keys(aes.enc_keys_, aes.rounds_), aes.rounds_,
                 data, iv, out.data());
#else
  (void)aes;
  (void)iv;
#endif
  return out;
}

std::vector<std::uint8_t> AesCbc::decrypt_aesni(
    const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv) {
  std::vector<std::uint8_t> out = whole_blocks_out(
      data, "cbc_decrypt requires a multiple of 16 bytes");
  util::require(Aes::uses_aesni(), "cbc_decrypt: this CPU has no AES-NI");
#if defined(__x86_64__)
  ni_cbc_decrypt(ni_round_keys(aes.dec_keys_, aes.rounds_), aes.rounds_,
                 data, iv, out.data());
#else
  (void)aes;
  (void)iv;
#endif
  return out;
}

}  // namespace streamcalc::kernels
