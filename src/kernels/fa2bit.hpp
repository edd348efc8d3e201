// fa_2bit: FASTA-to-2-bit DNA conversion, the DIBS pre-processing stage the
// paper's BLAST pipeline runs on an FPGA ([8], [13]).
//
// Each base A/C/G/T (case-insensitive) packs into 2 bits; four bases per
// output byte, first base in the least-significant bits. Ambiguous IUPAC
// codes (N, R, ...) are mapped to A and counted, matching the common
// practice of masking them out downstream. FASTA header lines ('>' to end
// of line) and whitespace are skipped.
//
// The converter is a streaming kernel: feed arbitrary chunks, collect
// packed output, so its throughput can be measured in isolation
// (kernels/measure.hpp) exactly as the paper measures its stages. It
// classifies characters through a 256-entry table, packs four plain bases
// into one byte with two lookups in a character-pair table derived from
// it, and skips header lines with memchr. On CPUs with AVX2
// (kernels/cpu.hpp) it first converts runs of plain bases 32 characters
// per step: two nibble-indexed shuffles classify and code them, and two
// multiply-adds pack the codes four to a byte. A 32-character block that
// holds anything but ACGTacgt goes to the pair-table loop; the output is
// byte-identical on either backend.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace streamcalc::kernels {

/// Streaming FASTA -> 2-bit converter. Not thread-safe.
class Fa2Bit {
 public:
  /// Consumes a chunk of FASTA text, appending packed bases to the
  /// internal buffer.
  void feed(std::string_view chunk);

  /// Flushes a final partial byte (zero-padded). Call once at end of input.
  void finish();

  /// Packed output so far (4 bases per byte, LSB-first).
  const std::vector<std::uint8_t>& packed() const& { return packed_; }
  /// Moves the packed output out of an expiring converter.
  std::vector<std::uint8_t> packed() && { return std::move(packed_); }
  /// Number of bases encoded (may exceed 4 * packed().size() before
  /// finish() pads the tail byte).
  std::uint64_t bases() const { return bases_; }
  /// Ambiguous (non-ACGT) bases mapped to A.
  std::uint64_t ambiguous() const { return ambiguous_; }

 private:
  friend struct BlastScan;  // the two feed backends (scan_impl.hpp)
  /// feed(), converting whole blocks of plain bases with AVX2 if `avx2`.
  void feed_with(std::string_view chunk, bool avx2);

  std::vector<std::uint8_t> packed_;
  std::uint64_t bases_ = 0;
  std::uint64_t ambiguous_ = 0;
  std::uint8_t pending_ = 0;   ///< partial byte being filled
  int pending_count_ = 0;      ///< bases in the partial byte (0-3)
  bool in_header_ = false;     ///< inside a '>' header line
};

/// One-shot convenience: converts a whole FASTA string.
std::vector<std::uint8_t> fa2bit(std::string_view fasta);

/// Unpacks 2-bit data back to bases (for tests and downstream kernels).
std::vector<char> unpack_2bit(std::span<const std::uint8_t> packed,
                              std::uint64_t bases);

}  // namespace streamcalc::kernels
