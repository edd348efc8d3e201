// AES-128/AES-256 in CBC mode — the software stand-in for the Vitis
// 256-bit CBC AES kernel of the paper's bump-in-the-wire pipeline
// (Section 5). Table-driven FIPS-197 implementation: the state is four
// 32-bit column words, and each round is one lookup per byte into four
// tables that fold SubBytes, ShiftRows and MixColumns together (Te0-Te3;
// Td0-Td3 for the inverse), generated at compile time from the S-box.
// Decryption uses the FIPS-197 §5.3.5 equivalent inverse cipher, whose
// key schedule is built once in the constructor, so a decrypt round costs
// the same as an encrypt round. Validated against the FIPS-197 and NIST
// SP 800-38A known-answer vectors in the test suite.
//
// CBC mode has two backends over the same key schedule. On x86-64 CPUs
// with the AES instructions (checked once at run time) it runs on AES-NI:
// encrypt is one aesenc chain per block, since each CBC block depends on
// the previous ciphertext; decrypt has no such dependency and takes 8
// blocks through each round together. Elsewhere it runs the table rounds.
// Both produce the same bytes; the tests check each against the other and
// against the known-answer vectors.
//
// This is a functional kernel for throughput measurement and round-trip
// testing, not a hardened cryptographic library. The AES-NI path does no
// table lookups indexed by key or data bytes. The table path, and the
// single-block encrypt_block/decrypt_block, are not constant-time: their
// lookups index memory by key- and data-dependent bytes, so the cache
// timing of a block leaks information about the key.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace streamcalc::kernels {

/// AES block/key containers.
using AesBlock = std::array<std::uint8_t, 16>;

struct AesCbc;

/// Key-expanded AES context for 128- or 256-bit keys.
class Aes {
 public:
  /// Builds from a 16-byte (AES-128) or 32-byte (AES-256) key; other key
  /// sizes throw PreconditionError.
  explicit Aes(std::span<const std::uint8_t> key);

  int rounds() const { return rounds_; }

  /// Encrypts/decrypts a single 16-byte block (ECB primitive).
  AesBlock encrypt_block(const AesBlock& in) const;
  AesBlock decrypt_block(const AesBlock& in) const;

  /// CBC mode over whole blocks. The input length must be a multiple of
  /// 16 (the streaming pipeline moves whole chunks; padding is the
  /// caller's concern). Returns ciphertext/plaintext of equal length.
  std::vector<std::uint8_t> cbc_encrypt(std::span<const std::uint8_t> data,
                                        const AesBlock& iv) const;
  std::vector<std::uint8_t> cbc_decrypt(std::span<const std::uint8_t> data,
                                        const AesBlock& iv) const;

  /// True when cbc_encrypt/cbc_decrypt run on the CPU's AES instructions,
  /// false when they run the portable table rounds.
  static bool uses_aesni();

 private:
  friend struct AesCbc;  // the CBC backends (aes_impl.hpp)
  int rounds_;
  /// Encryption round keys as big-endian column words, 4 per round
  /// (AES-256: 60). Byte-swapped, each round's 4 words are the aesenc key.
  std::array<std::uint32_t, 60> enc_keys_{};
  /// Equivalent inverse cipher schedule: enc_keys_ in reverse round order,
  /// InvMixColumns applied to the middle rounds, i.e. the aesdec keys.
  std::array<std::uint32_t, 60> dec_keys_{};
};

}  // namespace streamcalc::kernels
