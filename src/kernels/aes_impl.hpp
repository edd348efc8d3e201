// Internal to the kernels library and its tests: the two CBC backends
// behind Aes::cbc_encrypt/cbc_decrypt. Aes dispatches to the AES-NI
// backend when Aes::uses_aesni() and to the portable table backend
// otherwise; the tests call both directly so each is checked against the
// other and against the known-answer vectors on any host that has AES-NI.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/aes.hpp"

namespace streamcalc::kernels {

struct AesCbc {
  /// Table rounds; runs on every target. Both throw PreconditionError
  /// unless data.size() is a multiple of 16.
  static std::vector<std::uint8_t> encrypt_portable(
      const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv);
  static std::vector<std::uint8_t> decrypt_portable(
      const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv);

  /// AES-NI rounds. Both also throw PreconditionError unless
  /// Aes::uses_aesni(), so they never execute an instruction the CPU lacks.
  static std::vector<std::uint8_t> encrypt_aesni(
      const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv);
  static std::vector<std::uint8_t> decrypt_aesni(
      const Aes& aes, std::span<const std::uint8_t> data, const AesBlock& iv);
};

}  // namespace streamcalc::kernels
