#include "kernels/aes.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "kernels/aes_impl.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::kernels {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

AesBlock block_from_hex(const std::string& hex) {
  const auto v = from_hex(hex);
  AesBlock b{};
  std::copy(v.begin(), v.end(), b.begin());
  return b;
}

// Checks a CBC known answer in both directions through the dispatched
// entry points and through each backend directly: the portable one always,
// the AES-NI one where the CPU has it.
void expect_cbc_known_answer(const Aes& aes,
                             const std::vector<std::uint8_t>& pt,
                             const AesBlock& iv,
                             const std::vector<std::uint8_t>& ct) {
  EXPECT_EQ(aes.cbc_encrypt(pt, iv), ct);
  EXPECT_EQ(aes.cbc_decrypt(ct, iv), pt);
  EXPECT_EQ(AesCbc::encrypt_portable(aes, pt, iv), ct);
  EXPECT_EQ(AesCbc::decrypt_portable(aes, ct, iv), pt);
  if (Aes::uses_aesni()) {
    EXPECT_EQ(AesCbc::encrypt_aesni(aes, pt, iv), ct);
    EXPECT_EQ(AesCbc::decrypt_aesni(aes, ct, iv), pt);
  }
}

// FIPS-197 Appendix C.1: AES-128 known-answer test.
TEST(Aes, Fips197Aes128KnownAnswer) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Aes aes(key);
  EXPECT_EQ(aes.rounds(), 10);
  const AesBlock pt = block_from_hex("00112233445566778899aabbccddeeff");
  const AesBlock expected =
      block_from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(aes.encrypt_block(pt), expected);
  EXPECT_EQ(aes.decrypt_block(expected), pt);
  // One block under a zero IV is the bare block cipher.
  expect_cbc_known_answer(aes, {pt.begin(), pt.end()}, AesBlock{},
                          {expected.begin(), expected.end()});
}

// FIPS-197 Appendix C.3: AES-256 known-answer test.
TEST(Aes, Fips197Aes256KnownAnswer) {
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Aes aes(key);
  EXPECT_EQ(aes.rounds(), 14);
  const AesBlock pt = block_from_hex("00112233445566778899aabbccddeeff");
  const AesBlock expected =
      block_from_hex("8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(aes.encrypt_block(pt), expected);
  EXPECT_EQ(aes.decrypt_block(expected), pt);
  // One block under a zero IV is the bare block cipher.
  expect_cbc_known_answer(aes, {pt.begin(), pt.end()}, AesBlock{},
                          {expected.begin(), expected.end()});
}

// NIST SP 800-38A F.2.1/F.2.2 (AES-128-CBC) and F.2.5/F.2.6 (AES-256-CBC):
// both directions over all four blocks; the two share plaintext and IV.
const AesBlock kSp80038aIv = block_from_hex("000102030405060708090a0b0c0d0e0f");
const std::string kSp80038aPlain =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

TEST(Aes, Sp80038aCbcKnownAnswer) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto pt = from_hex(kSp80038aPlain);
  const auto expected = from_hex(
      "7649abac8119b246cee98e9b12e9197d"
      "5086cb9b507219ee95db113a917678b2"
      "73bed6b8e3c1743b7116e69e22229516"
      "3ff1caa1681fac09120eca307586e1a7");
  expect_cbc_known_answer(Aes(key), pt, kSp80038aIv, expected);
}

TEST(Aes, Sp80038aCbc256KnownAnswer) {
  const auto key = from_hex(
      "603deb1015ca71be2b73aef0857d7781"
      "1f352c073b6108d72d9810a30914dff4");
  const auto pt = from_hex(kSp80038aPlain);
  const auto expected = from_hex(
      "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
      "9cfc4e967edb808d679f777bc6702c7d"
      "39f23369a9d9bacfa530e26304231461"
      "b2eb05e2c39be9fcda6c19078c6a9d1b");
  expect_cbc_known_answer(Aes(key), pt, kSp80038aIv, expected);
}

// Byte-serial FIPS-197 reference cipher (S-box, ShiftRows, MixColumns and
// their inverses one byte at a time, straightforward inverse cipher), kept
// as the oracle for the table-driven implementation. The state is
// column-major: s[4*c + r] is row r of column c.
std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// The S-box from its definition: multiplicative inverse, then the affine
// map, so the oracle shares no table with the code under test.
std::uint8_t sbox(std::uint8_t x) {
  std::uint8_t inv = 0;
  for (int c = 1; c < 256 && x != 0; ++c) {
    if (gmul(x, static_cast<std::uint8_t>(c)) == 1) {
      inv = static_cast<std::uint8_t>(c);
      break;
    }
  }
  const auto rotl = [](std::uint8_t v, int n) {
    return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
  };
  return static_cast<std::uint8_t>(inv ^ rotl(inv, 1) ^ rotl(inv, 2) ^
                                   rotl(inv, 3) ^ rotl(inv, 4) ^ 0x63);
}

struct SboxPair {
  std::array<std::uint8_t, 256> forward{};
  std::array<std::uint8_t, 256> inverse{};
};

const SboxPair& reference_sboxes() {
  static const SboxPair pair = [] {
    SboxPair p;
    for (std::size_t x = 0; x < 256; ++x) {
      p.forward[x] = sbox(static_cast<std::uint8_t>(x));
      p.inverse[p.forward[x]] = static_cast<std::uint8_t>(x);
    }
    return p;
  }();
  return pair;
}

class ReferenceAes {
 public:
  explicit ReferenceAes(const std::vector<std::uint8_t>& key) {
    const std::size_t nk = key.size() / 4;
    rounds_ = nk + 6;
    std::vector<std::uint8_t> w(key);
    std::uint8_t rcon = 1;
    for (std::size_t i = nk; i < 4 * (rounds_ + 1); ++i) {
      std::uint8_t t[4] = {w[4 * i - 4], w[4 * i - 3], w[4 * i - 2],
                           w[4 * i - 1]};
      if (i % nk == 0) {
        const std::uint8_t t0 = t[0];
        t[0] = static_cast<std::uint8_t>(sbox_[t[1]] ^ rcon);
        t[1] = sbox_[t[2]];
        t[2] = sbox_[t[3]];
        t[3] = sbox_[t0];
        rcon = xtime(rcon);
      } else if (nk > 6 && i % nk == 4) {
        for (auto& b : t) b = sbox_[b];
      }
      for (std::size_t j = 0; j < 4; ++j) {
        w.push_back(static_cast<std::uint8_t>(w[4 * (i - nk) + j] ^ t[j]));
      }
    }
    round_keys_ = w;
  }

  AesBlock encrypt(AesBlock s) const {
    add_round_key(s, 0);
    for (std::size_t r = 1; r <= rounds_; ++r) {
      for (auto& b : s) b = sbox_[b];
      shift_rows(s, 1);
      if (r != rounds_) mix_columns(s, {2, 3, 1, 1});
      add_round_key(s, r);
    }
    return s;
  }

  AesBlock decrypt(AesBlock s) const {
    add_round_key(s, rounds_);
    for (std::size_t r = rounds_; r-- > 0;) {
      shift_rows(s, 3);
      for (auto& b : s) b = inv_sbox_[b];
      add_round_key(s, r);
      if (r != 0) mix_columns(s, {14, 11, 13, 9});
    }
    return s;
  }

 private:
  void add_round_key(AesBlock& s, std::size_t round) const {
    for (std::size_t i = 0; i < 16; ++i) s[i] ^= round_keys_[16 * round + i];
  }

  // Row r moves left by r * shift columns (ShiftRows: 1, inverse: 3).
  static void shift_rows(AesBlock& s, std::size_t shift) {
    const AesBlock t = s;
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t r = 1; r < 4; ++r) {
        s[4 * c + r] = t[4 * ((c + r * shift) % 4) + r];
      }
    }
  }

  // Multiplies each column by the circulant matrix with first row m.
  static void mix_columns(AesBlock& s, const std::array<std::uint8_t, 4>& m) {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::array<std::uint8_t, 4> a = {s[4 * c], s[4 * c + 1],
                                             s[4 * c + 2], s[4 * c + 3]};
      for (std::size_t r = 0; r < 4; ++r) {
        std::uint8_t v = 0;
        for (std::size_t j = 0; j < 4; ++j) {
          v ^= gmul(a[j], m[(j + 4 - r) % 4]);
        }
        s[4 * c + r] = v;
      }
    }
  }

  const std::array<std::uint8_t, 256>& sbox_ = reference_sboxes().forward;
  const std::array<std::uint8_t, 256>& inv_sbox_ = reference_sboxes().inverse;
  std::size_t rounds_ = 0;
  std::vector<std::uint8_t> round_keys_;
};

TEST(Aes, ReferenceCipherMatchesFips197) {
  const ReferenceAes ref(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const AesBlock pt = block_from_hex("00112233445566778899aabbccddeeff");
  const AesBlock ct = block_from_hex("8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(ref.encrypt(pt), ct);
  EXPECT_EQ(ref.decrypt(ct), pt);
}

TEST(Aes, BlockCipherMatchesReferenceOnRandomKeys) {
  util::Xoshiro256 rng(1197);
  for (const std::size_t key_size : {std::size_t{16}, std::size_t{32}}) {
    for (int k = 0; k < 500; ++k) {
      std::vector<std::uint8_t> key(key_size);
      for (auto& b : key) b = static_cast<std::uint8_t>(rng());
      const Aes aes(key);
      const ReferenceAes ref(key);
      for (int i = 0; i < 4; ++i) {
        AesBlock block{};
        for (auto& b : block) b = static_cast<std::uint8_t>(rng());
        ASSERT_EQ(aes.encrypt_block(block), ref.encrypt(block))
            << "key size " << key_size << ", key " << k;
        ASSERT_EQ(aes.decrypt_block(block), ref.decrypt(block))
            << "key size " << key_size << ", key " << k;
      }
    }
  }
}

TEST(Aes, CbcOfEmptyInputIsEmpty) {
  const Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_TRUE(aes.cbc_encrypt({}, AesBlock{}).empty());
  EXPECT_TRUE(aes.cbc_decrypt({}, AesBlock{}).empty());
}

TEST(Aes, CbcRoundTripRandomData) {
  util::Xoshiro256 rng(21);
  std::vector<std::uint8_t> key(32);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  AesBlock iv{};
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> data(16 * 257);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const Aes aes(key);
  const auto ct = aes.cbc_encrypt(data, iv);
  EXPECT_NE(ct, data);
  EXPECT_EQ(aes.cbc_decrypt(ct, iv), data);
}

TEST(Aes, CbcChainsAcrossBlocks) {
  // Identical plaintext blocks must yield different ciphertext blocks.
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes aes(key);
  AesBlock iv{};
  std::vector<std::uint8_t> data(64, 0xAB);
  const auto ct = aes.cbc_encrypt(data, iv);
  EXPECT_NE(std::vector<std::uint8_t>(ct.begin(), ct.begin() + 16),
            std::vector<std::uint8_t>(ct.begin() + 16, ct.begin() + 32));
}

TEST(Aes, SizePreserving) {
  // The pipeline models AES with volume ratio 1.0: ciphertext bytes ==
  // plaintext bytes.
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes aes(key);
  const std::vector<std::uint8_t> data(1024, 0x5C);
  EXPECT_EQ(aes.cbc_encrypt(data, AesBlock{}).size(), data.size());
}

TEST(Aes, RejectsBadKeyAndLength) {
  const std::vector<std::uint8_t> short_key(8, 0);
  EXPECT_THROW(Aes{short_key}, util::PreconditionError);
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes aes(key);
  const std::vector<std::uint8_t> ragged(17, 0);
  EXPECT_THROW(aes.cbc_encrypt(ragged, AesBlock{}),
               util::PreconditionError);
  EXPECT_THROW(aes.cbc_decrypt(ragged, AesBlock{}),
               util::PreconditionError);
  EXPECT_THROW(AesCbc::encrypt_portable(aes, ragged, AesBlock{}),
               util::PreconditionError);
  EXPECT_THROW(AesCbc::decrypt_portable(aes, ragged, AesBlock{}),
               util::PreconditionError);
  EXPECT_THROW(AesCbc::encrypt_aesni(aes, ragged, AesBlock{}),
               util::PreconditionError);
  EXPECT_THROW(AesCbc::decrypt_aesni(aes, ragged, AesBlock{}),
               util::PreconditionError);
  if (!Aes::uses_aesni()) {
    // Without AES-NI the NI backend refuses instead of faulting.
    const std::vector<std::uint8_t> block(16, 0);
    EXPECT_THROW(AesCbc::encrypt_aesni(aes, block, AesBlock{}),
                 util::PreconditionError);
    EXPECT_THROW(AesCbc::decrypt_aesni(aes, block, AesBlock{}),
                 util::PreconditionError);
  }
}

}  // namespace
}  // namespace streamcalc::kernels
