#include "kernels/blastn.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "kernels/cpu.hpp"
#include "kernels/scan_impl.hpp"
#include "util/error.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace streamcalc::kernels {

namespace {

/// Largest sequence whose base positions fit SeedMatch's 32-bit fields.
constexpr std::uint64_t kMaxBases = std::numeric_limits<std::uint32_t>::max();

/// Low bit of every 2-bit base field of a 64-bit word.
constexpr std::uint64_t kFieldLowBits = 0x5555555555555555ULL;

/// Little-endian load of 8 bytes.
std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof w);
  } else {
    for (int i = 0; i < 8; ++i) w |= std::uint64_t{p[i]} << (8 * i);
  }
  return w;
}

/// The byte-aligned 8-mer key held by packed bytes p[0] and p[1]; compilers
/// read it with one 16-bit load.
std::uint16_t load_kmer(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

/// Bases pos .. pos + 31 of a packed sequence, base pos + j in bits 2j and
/// 2j + 1. Bases past the end of `packed` read as A (0); callers only use
/// the steps inside their limits.
std::uint64_t bases32(std::span<const std::uint8_t> packed,
                      std::uint64_t pos) {
  const std::uint64_t byte = pos / 4;
  const unsigned shift = 2 * static_cast<unsigned>(pos % 4);
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  if (byte + 9 <= packed.size()) {
    lo = load64(packed.data() + byte);
    hi = packed[byte + 8];
  } else {
    // The buffer's tail: copy what is there into zeroed bytes.
    std::uint8_t tail[9] = {};
    if (byte < packed.size()) {
      std::memcpy(tail, packed.data() + byte,
                  static_cast<std::size_t>(packed.size() - byte));
    }
    lo = load64(tail);
    hi = tail[8];
  }
  return shift == 0 ? lo : (lo >> shift) | (hi << (64 - shift));
}

/// Bases end - 32 .. end - 1, base end - 32 + j in field j; positions
/// below 0 read as A.
std::uint64_t bases32_before(std::span<const std::uint8_t> packed,
                             std::uint64_t end) {
  if (end >= 32) return bases32(packed, end - 32);
  if (end == 0) return 0;
  return bases32(packed, 0) << (2 * (32 - end));
}

/// Reverses the order of the 32 two-bit fields of a word.
std::uint64_t reverse_fields(std::uint64_t w) {
  w = ((w >> 2) & 0x3333333333333333ULL) | ((w & 0x3333333333333333ULL) << 2);
  w = ((w >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((w & 0x0F0F0F0F0F0F0F0FULL) << 4);
  w = ((w >> 8) & 0x00FF00FF00FF00FFULL) | ((w & 0x00FF00FF00FF00FFULL) << 8);
  w = ((w >> 16) & 0x0000FFFF0000FFFFULL) |
      ((w & 0x0000FFFF0000FFFFULL) << 16);
  return (w >> 32) | (w << 32);
}

/// Bit 2j set iff field j of `a` and `b` differ.
std::uint64_t mismatch_bits(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t x = a ^ b;
  return (x | (x >> 1)) & kFieldLowBits;
}

/// Index of the first mismatch in a mask from mismatch_bits; 32 if none.
int first_mismatch(std::uint64_t mismatches) {
  return std::countr_zero(mismatches) / 2;
}

/// One direction of an extension from a seed. Step s (from 0) compares
/// database base db + s with query base query + s going right, and
/// db - 1 - s with query - 1 - s going left; `limit` steps stay inside
/// both sequences.
struct Direction {
  std::span<const std::uint8_t> db_packed;
  std::span<const std::uint8_t> query_packed;
  std::uint64_t db;
  std::uint64_t query;
  std::uint64_t limit;
  bool right;

  /// Mismatches of steps s .. s + 31: bit 2j set iff step s + j differs.
  std::uint64_t mismatches(std::uint64_t s) const {
    if (right) {
      return mismatch_bits(bases32(db_packed, db + s),
                           bases32(query_packed, query + s));
    }
    return reverse_fields(
        mismatch_bits(bases32_before(db_packed, db - s),
                      bases32_before(query_packed, query - s)));
  }
};

Direction left_of(const SeedMatch& m, std::span<const std::uint8_t> db,
                  std::span<const std::uint8_t> query) {
  return Direction{db, query, m.db_pos, m.query_pos,
                   std::min(m.db_pos, m.query_pos), false};
}

Direction right_of(const SeedMatch& m, std::span<const std::uint8_t> db,
                   std::uint64_t db_bases, std::span<const std::uint8_t> query,
                   std::uint64_t query_bases) {
  const std::uint64_t dp = std::uint64_t{m.db_pos} + 8;
  const std::uint64_t qp = std::uint64_t{m.query_pos} + 8;
  return Direction{db, query, dp, qp,
                   std::min(db_bases - dp, query_bases - qp), true};
}

/// Best X-drop extension score in one direction over at most
/// params.window steps (the seed itself is not re-scored), with the step
/// count that reaches it in `*best_steps`. Exactly the per-base loop
///
///   for i in 1..window: score += match ? reward : penalty;
///                       best = max(best, score) (recording i on a rise);
///                       stop once best - score >= x_drop
///
/// evaluated one run of equal steps at a time: the matches up to the next
/// mismatch, then the mismatch.
int extend_direction(const Direction& dir, const UngappedParams& params,
                     int* best_steps) {
  const int limit = static_cast<int>(std::min<std::uint64_t>(
      dir.limit, static_cast<std::uint64_t>(std::max(params.window, 0))));
  int score = 0;
  int best = 0;
  int steps = 0;
  *best_steps = 0;
  // Applies `k` steps that each add `delta`; false once the cutoff fires.
  const auto run = [&](int delta, int k) {
    if (delta > 0) {
      // A rising score only narrows the gap to the best, so the cutoff can
      // fire on the run's first step alone.
      score += delta;
      ++steps;
      if (score > best) {
        best = score;
        *best_steps = steps;
      }
      if (best - score >= params.x_drop) return false;
      score = static_cast<int>(score + std::int64_t{delta} * (k - 1));
      steps += k - 1;
      if (score > best) {
        best = score;
        *best_steps = steps;
      }
      return true;
    }
    // A flat or falling score leaves the best alone and widens the gap by
    // -delta per step: the cutoff fires on step j = ceil(need / -delta).
    const std::int64_t need = std::int64_t{params.x_drop} - (best - score);
    const std::int64_t drop = -std::int64_t{delta};
    if (need <= drop || (drop > 0 && (need + drop - 1) / drop <= k)) {
      return false;
    }
    score = static_cast<int>(score + std::int64_t{delta} * k);
    steps += k;
    return true;
  };
  for (int done = 0; done < limit; done += 32) {
    const int len = std::min(32, limit - done);
    std::uint64_t mismatches =
        dir.mismatches(static_cast<std::uint64_t>(done));
    int pos = 0;
    while (pos < len) {
      const int next = std::min(len, first_mismatch(mismatches));
      if (next > pos && !run(params.match_reward, next - pos)) return best;
      if (next == len) break;
      if (!run(params.mismatch_penalty, 1)) return best;
      mismatches &= mismatches - 1;
      pos = next + 1;
    }
  }
  return best;
}

/// Exact-match steps in one direction, at most `max_steps` (<= 32).
int matching_steps(const Direction& dir, int max_steps) {
  const int cap = static_cast<int>(std::min<std::uint64_t>(
      dir.limit, static_cast<std::uint64_t>(max_steps)));
  return std::min(cap, first_mismatch(dir.mismatches(0)));
}

/// The declared database must fit its packed buffer and 32-bit positions.
void require_database(std::span<const std::uint8_t> db_packed,
                      std::uint64_t db_bases, const char* stage) {
  if (db_bases > kMaxBases) {
    throw util::PreconditionError(
        std::string(stage) + ": " + std::to_string(db_bases) +
        " database bases do not fit 32-bit seed positions");
  }
  if (db_bases > 4 * static_cast<std::uint64_t>(db_packed.size())) {
    throw util::PreconditionError(
        std::string(stage) + ": " + std::to_string(db_bases) +
        " database bases declared, but the packed database holds " +
        std::to_string(4 * static_cast<std::uint64_t>(db_packed.size())));
  }
}

/// Appends 4 * k for every key k in [first, keys) whose 8-mer (packed
/// bytes k and k + 1) occurs in the query.
void match_keys(const std::uint8_t* bytes, std::uint64_t first,
                std::uint64_t keys, const QueryIndex& index,
                std::vector<std::uint32_t>& hits) {
  for (std::uint64_t k = first; k < keys; ++k) {
    if (index.contains(load_kmer(bytes + k))) {
      hits.push_back(static_cast<std::uint32_t>(4 * k));
    }
  }
}

#if defined(__x86_64__)
/// match_keys over keys [0, keys) of a `size`-byte packed buffer, 8 keys
/// per step: one 16-byte load holds the 9 bytes of keys k .. k + 7, and
/// one gather fetches the 32-bit bitmap word of each. Stops before the
/// first step that would run past the last key or the buffer, and returns
/// the keys done; the caller finishes the rest with match_keys.
__attribute__((target("avx2"))) std::uint64_t match_keys_avx2(
    const std::uint8_t* bytes, std::uint64_t size, std::uint64_t keys,
    const std::uint32_t* present, std::vector<std::uint32_t>& hits) {
  const auto* words = reinterpret_cast<const int*>(present);
  const __m256i low5 = _mm256_set1_epi32(31);
  std::uint64_t k = 0;
  for (; k + 8 <= keys && k + 16 <= size; k += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + k));
    // Key j is bytes j and j + 1, little-endian.
    const __m256i key = _mm256_cvtepu16_epi32(
        _mm_unpacklo_epi8(v, _mm_srli_si128(v, 1)));
    const __m256i word =
        _mm256_i32gather_epi32(words, _mm256_srli_epi32(key, 5), 4);
    // Shift each key's bit into the sign bit: left by 31 - (key & 31).
    const __m256i bit =
        _mm256_sllv_epi32(word, _mm256_andnot_si256(key, low5));
    auto found = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(bit)));
    while (found != 0) {
      hits.push_back(static_cast<std::uint32_t>(
          4 * (k + static_cast<unsigned>(std::countr_zero(found)))));
      found &= found - 1;
    }
  }
  return k;
}
#endif

/// A match's 8-mer must lie inside the database and the query.
void require_match(const SeedMatch& m, std::uint64_t db_bases,
                   std::uint64_t query_bases, const char* message) {
  util::require(std::uint64_t{m.db_pos} + 8 <= db_bases &&
                    std::uint64_t{m.query_pos} + 8 <= query_bases,
                message);
}

}  // namespace

std::uint16_t QueryIndex::kmer_at(std::span<const std::uint8_t> packed,
                                  std::uint64_t pos) {
  util::require(pos <= 4 * static_cast<std::uint64_t>(packed.size()) &&
                    4 * static_cast<std::uint64_t>(packed.size()) - pos >= 8,
                "QueryIndex::kmer_at: 8-mer runs past the packed data");
  return static_cast<std::uint16_t>(bases32(packed, pos));
}

QueryIndex::QueryIndex(std::span<const std::uint8_t> query_packed,
                       std::uint64_t bases)
    : packed_(query_packed.begin(), query_packed.end()), bases_(bases) {
  util::require(bases >= 8, "QueryIndex requires a query of >= 8 bases");
  util::require(bases <= query_packed.size() * 4,
                "QueryIndex: packed query shorter than the declared bases");
  util::require(bases <= kMaxBases,
                "QueryIndex: query positions do not fit 32 bits");
  // Counting sort of the query's 8-mers: count each key into the slot
  // after it, prefix-sum the counts into bucket starts, then place every
  // position at its bucket's cursor. Placing advances offsets_[k] to the
  // start of bucket k + 1, so the table ends shifted down by one slot.
  const std::uint64_t kmers = bases - 7;
  offsets_.assign(kKmers + 1, 0);
  for (std::uint64_t q = 0; q < kmers; ++q) {
    ++offsets_[kmer_at(packed_, q) + 1U];
  }
  for (std::size_t k = 0; k < kKmers; ++k) {
    if (offsets_[k + 1] != 0) {
      present_[k / 32] |= std::uint32_t{1} << (k % 32);
    }
    offsets_[k + 1] += offsets_[k];
  }
  positions_.resize(kmers);
  for (std::uint64_t q = 0; q < kmers; ++q) {
    positions_[offsets_[kmer_at(packed_, q)]++] =
        static_cast<std::uint32_t>(q);
  }
  std::copy_backward(offsets_.begin(), offsets_.end() - 2,
                     offsets_.end() - 1);
  offsets_[0] = 0;
}

std::vector<std::uint32_t> seed_match(std::span<const std::uint8_t> db_packed,
                                      std::uint64_t db_bases,
                                      const QueryIndex& index) {
  return uses_avx2() ? BlastScan::seed_match_avx2(db_packed, db_bases, index)
                     : BlastScan::seed_match_portable(db_packed, db_bases,
                                                      index);
}

// Byte-aligned 8-mers: key k is packed bytes k and k + 1, database
// position 4k, for every k with 4k + 8 <= db_bases.
std::vector<std::uint32_t> BlastScan::seed_match_portable(
    std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
    const QueryIndex& index) {
  require_database(db_packed, db_bases, "seed_match");
  std::vector<std::uint32_t> hits;
  if (db_bases < 8) return hits;
  match_keys(db_packed.data(), 0, (db_bases - 8) / 4 + 1, index, hits);
  return hits;
}

std::vector<std::uint32_t> BlastScan::seed_match_avx2(
    std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
    const QueryIndex& index) {
  require_database(db_packed, db_bases, "seed_match");
  util::require(uses_avx2(), "seed_match: this CPU has no AVX2");
  std::vector<std::uint32_t> hits;
  if (db_bases < 8) return hits;
  const std::uint64_t keys = (db_bases - 8) / 4 + 1;
#if defined(__x86_64__)
  const std::uint64_t done = match_keys_avx2(
      db_packed.data(), db_packed.size(), keys, index.present_.data(), hits);
#else
  const std::uint64_t done = 0;
#endif
  match_keys(db_packed.data(), done, keys, index, hits);
  return hits;
}

std::vector<SeedMatch> seed_enumerate(
    std::span<const std::uint32_t> db_positions,
    std::span<const std::uint8_t> db_packed, const QueryIndex& index) {
  std::vector<SeedMatch> matches;
  matches.reserve(db_positions.size());
  for (std::uint32_t p : db_positions) {
    util::require(p % 4 == 0 && p / 4 + 2 <= db_packed.size(),
                  "seed_enumerate: position is not a byte-aligned 8-mer "
                  "inside the packed database");
    for (std::uint32_t q : index.positions(load_kmer(&db_packed[p / 4]))) {
      matches.push_back(SeedMatch{p, q});
    }
  }
  return matches;
}

std::vector<SeedMatch> small_extension(std::span<const SeedMatch> matches,
                                       std::span<const std::uint8_t> db_packed,
                                       std::uint64_t db_bases,
                                       const QueryIndex& index,
                                       int min_length) {
  require_database(db_packed, db_bases, "small_extension");
  std::vector<SeedMatch> kept;
  const auto query = index.query_packed();
  const std::uint64_t query_bases = index.query_bases();
  for (const SeedMatch& m : matches) {
    require_match(m, db_bases, query_bases,
                  "small_extension: seed match outside the database or "
                  "query");
    // Extend left and right by up to 3 exactly matching bases.
    const int length =
        8 + matching_steps(left_of(m, db_packed, query), 3) +
        matching_steps(right_of(m, db_packed, db_bases, query, query_bases),
                       3);
    if (length >= min_length) kept.push_back(m);
  }
  return kept;
}

std::vector<Alignment> ungapped_extension(
    std::span<const SeedMatch> matches,
    std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
    const QueryIndex& index, const UngappedParams& params) {
  require_database(db_packed, db_bases, "ungapped_extension");
  std::vector<Alignment> alignments;
  const auto query = index.query_packed();
  const std::uint64_t query_bases = index.query_bases();
  for (const SeedMatch& m : matches) {
    require_match(m, db_bases, query_bases,
                  "ungapped_extension: seed match outside the database or "
                  "query");
    int left_steps = 0;
    int right_steps = 0;
    const int left =
        extend_direction(left_of(m, db_packed, query), params, &left_steps);
    const int right = extend_direction(
        right_of(m, db_packed, db_bases, query, query_bases), params,
        &right_steps);
    const int seed_score = 8 * params.match_reward;
    const int total = seed_score + left + right;
    if (total >= params.threshold) {
      alignments.push_back(Alignment{
          m, total,
          static_cast<std::uint32_t>(8 + left_steps + right_steps)});
    }
  }
  return alignments;
}

std::vector<Alignment> blastn_pipeline(
    std::span<const std::uint8_t> db_packed, std::uint64_t db_bases,
    const QueryIndex& index, const UngappedParams& params) {
  const auto hits = seed_match(db_packed, db_bases, index);
  const auto matches = seed_enumerate(hits, db_packed, index);
  const auto extended =
      small_extension(matches, db_packed, db_bases, index);
  return ungapped_extension(extended, db_packed, db_bases, index, params);
}

}  // namespace streamcalc::kernels
