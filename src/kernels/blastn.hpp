// Software implementation of the BLASTN pipeline stages modeled in the
// paper's Section 4 (Fig. 2): seed matching against an 8-mer query hash
// table, seed enumeration, small extension, and ungapped extension.
// Mirrors the Mercator/GPU implementation's structure ([9], [18]): each
// stage is a filter/expander over the previous stage's outputs, so each
// can be run — and its throughput measured — in isolation.
//
// The database is 2-bit packed (kernels/fa2bit.hpp); seed matching scans
// byte-aligned 8-mers (one lookup per packed byte pair), exactly the
// "each byte-aligned 8-mer of the database" formulation of the paper. On
// CPUs with AVX2 (kernels/cpu.hpp) it tests 8 of them per step with one
// gather from the query's presence bitmap, and the same hits come out in
// the same order as from the portable loop.
// The extension stages compare 32 bases per 64-bit XOR of database and
// query words and walk the X-drop score from one mismatch to the next.
//
// Every stage checks its inputs (util::PreconditionError): the declared
// database length must fit the packed buffer and 32-bit positions, and
// caller-supplied positions and matches must lie inside the sequences.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace streamcalc::kernels {

/// Reads base i (2-bit code 0-3) from packed DNA.
inline std::uint8_t base_at(std::span<const std::uint8_t> packed,
                            std::uint64_t i) {
  return (packed[i / 4] >> (2 * (i % 4))) & 0x3;
}

/// An 8-mer match: database position p, query position q (both in bases).
struct SeedMatch {
  std::uint32_t db_pos;
  std::uint32_t query_pos;
  friend bool operator==(const SeedMatch&, const SeedMatch&) = default;
};

/// A scored ungapped alignment around a seed.
struct Alignment {
  SeedMatch seed;
  int score;
  std::uint32_t length;  ///< total aligned length including the seed
  friend bool operator==(const Alignment&, const Alignment&) = default;
};

/// Hash table of all 8-mers of the query sequence (2-bit packed). An 8-mer
/// is 16 bits, so the "hash" is a direct 65536-entry table (collision-free),
/// as a GPU implementation would hold in shared/DRAM memory. It is held
/// flat: an 8 KiB presence bitmap answers contains() from L1 (and the
/// 8-lane gathers of the AVX2 seed_match), and an offsets + positions
/// table (a counting sort of the query's 8-mers) answers positions().
class QueryIndex {
 public:
  /// Builds from a packed query of `bases` bases. Requires
  /// 8 <= bases <= 4 * query_packed.size() and bases < 2^32.
  QueryIndex(std::span<const std::uint8_t> query_packed,
             std::uint64_t bases);

  /// True if the 8-mer occurs anywhere in the query.
  bool contains(std::uint16_t kmer) const {
    return (present_[kmer / 32] >> (kmer % 32)) & 1U;
  }
  /// All query positions at which the 8-mer occurs, in increasing order.
  std::span<const std::uint32_t> positions(std::uint16_t kmer) const {
    return std::span<const std::uint32_t>(positions_)
        .subspan(offsets_[kmer], offsets_[kmer + 1U] - offsets_[kmer]);
  }

  std::uint64_t query_bases() const { return bases_; }
  std::span<const std::uint8_t> query_packed() const { return packed_; }

  /// Packs 8 consecutive bases starting at `pos` into a 16-bit k-mer key.
  /// Requires pos + 8 <= 4 * packed.size().
  static std::uint16_t kmer_at(std::span<const std::uint8_t> packed,
                               std::uint64_t pos);

 private:
  friend struct BlastScan;  // the seed_match backends (scan_impl.hpp)
  static constexpr std::size_t kKmers = 65536;

  std::vector<std::uint8_t> packed_;
  std::uint64_t bases_;
  /// One bit per 8-mer, in 32-bit words: the AVX2 seed_match gathers
  /// them 8 at a time.
  std::array<std::uint32_t, kKmers / 32> present_{};
  /// The positions of 8-mer k are positions_[offsets_[k], offsets_[k + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> positions_;
};

/// Stage: seed matching. Scans every byte-aligned 8-mer of the database
/// (positions 0, 4, 8, ...) and returns those positions whose 8-mer occurs
/// in the query — a highly selective filter for queries much shorter than
/// 2^16 bases.
std::vector<std::uint32_t> seed_match(std::span<const std::uint8_t> db_packed,
                                      std::uint64_t db_bases,
                                      const QueryIndex& index);

/// Stage: seed enumeration. Expands each passing database position into
/// one (p, q) match per query occurrence of its 8-mer (on average 1-2 per
/// position for non-repetitive queries). Every position must be a
/// byte-aligned 8-mer inside `db_packed`, as seed_match returns them.
std::vector<SeedMatch> seed_enumerate(
    std::span<const std::uint32_t> db_positions,
    std::span<const std::uint8_t> db_packed, const QueryIndex& index);

/// Stage: small extension. Tries to extend each match left and right by up
/// to 3 bases (exact matches only); keeps matches reaching a total length
/// of at least `min_length` (11 in the paper). Every match's 8-mer must lie
/// inside the database and the query (also for ungapped_extension).
std::vector<SeedMatch> small_extension(std::span<const SeedMatch> matches,
                                       std::span<const std::uint8_t> db_packed,
                                       std::uint64_t db_bases,
                                       const QueryIndex& index,
                                       int min_length = 11);

/// Scoring parameters for ungapped extension.
struct UngappedParams {
  int match_reward = 1;
  int mismatch_penalty = -2;
  int x_drop = 8;        ///< stop extending after the score drops this far
  int window = 128;      ///< max bases examined on each side of the seed
  int threshold = 12;    ///< minimum score to report
};

/// Stage: ungapped extension. Extends each match in both directions with
/// match/mismatch scoring and an X-drop cutoff inside a fixed window, and
/// reports seeds whose best extension scores at or above the threshold.
std::vector<Alignment> ungapped_extension(
    std::span<const SeedMatch> matches,
    std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
    const QueryIndex& index, const UngappedParams& params = {});

/// Runs the whole pipeline (convenience for tests and examples).
std::vector<Alignment> blastn_pipeline(
    std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
    const QueryIndex& index, const UngappedParams& params = {});

}  // namespace streamcalc::kernels
