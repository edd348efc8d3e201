// Internal to the kernels library and its tests: the two backends of each
// BLAST scan stage. Fa2Bit::feed and seed_match dispatch to the AVX2
// backend when uses_avx2() and to the portable one otherwise; the tests
// call both directly so each is checked against the other and against the
// character references on any host that has AVX2.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "kernels/blastn.hpp"
#include "kernels/fa2bit.hpp"

namespace streamcalc::kernels {

struct BlastScan {
  /// Fa2Bit::feed with the character-pair table loop only; runs on every
  /// target.
  static void feed_portable(Fa2Bit& conv, std::string_view chunk);
  /// Fa2Bit::feed converting 32 plain bases per AVX2 step. Throws
  /// PreconditionError unless uses_avx2(), so it never executes an
  /// instruction the CPU lacks.
  static void feed_avx2(Fa2Bit& conv, std::string_view chunk);

  /// seed_match with one bitmap probe per 8-mer; runs on every target.
  static std::vector<std::uint32_t> seed_match_portable(
      std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
      const QueryIndex& index);
  /// seed_match gathering the bitmap words of 8 8-mers per AVX2 step.
  /// Throws PreconditionError unless uses_avx2().
  static std::vector<std::uint32_t> seed_match_avx2(
      std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
      const QueryIndex& index);
};

}  // namespace streamcalc::kernels
