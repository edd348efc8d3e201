// Differential fuzz suite for the BLAST stage kernels (label `property`).
//
// The library kernels work on whole bytes and 64-bit words: fa2bit packs
// four bases per two table lookups (and, with AVX2, 32 per vector step),
// the extension stages XOR 32 bases at once and walk the X-drop score from
// mismatch to mismatch. The references below do the same work one
// character or one base at a time, and every output must match them
// exactly, on each fa2bit backend the CPU can run. Budgets scale with
// STREAMCALC_FUZZ_CASES.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kernels/blastn.hpp"
#include "kernels/cpu.hpp"
#include "kernels/fa2bit.hpp"
#include "kernels/scan_impl.hpp"
#include "kernels/testdata.hpp"
#include "testing/property.hpp"
#include "util/rng.hpp"

namespace streamcalc::kernels {

// Readable gtest failure output for the stage results.
void PrintTo(const SeedMatch& m, std::ostream* os) {
  *os << "(db " << m.db_pos << ", query " << m.query_pos << ")";
}
void PrintTo(const Alignment& a, std::ostream* os) {
  PrintTo(a.seed, os);
  *os << " score " << a.score << " length " << a.length;
}

namespace {

using streamcalc::testing::scaled_cases;
using util::Xoshiro256;

// ---------------------------------------------------------------------------
// fa2bit

/// Character-at-a-time FASTA -> 2-bit converter.
struct ReferenceFa2Bit {
  std::vector<std::uint8_t> packed;
  std::uint64_t bases = 0;
  std::uint64_t ambiguous = 0;
  std::uint8_t pending = 0;
  int pending_count = 0;
  bool in_header = false;

  void feed(std::string_view chunk) {
    for (const char c : chunk) {
      if (in_header) {
        if (c == '\n') in_header = false;
        continue;
      }
      if (c == '>') {
        in_header = true;
        continue;
      }
      if (c == '\n' || c == '\r' || c == ' ' || c == '\t') continue;
      const std::size_t at = std::string_view("AaCcGgTt").find(c);
      int code = 0;  // ambiguous bases are masked to A
      if (at == std::string_view::npos) {
        ++ambiguous;
      } else {
        code = static_cast<int>(at / 2);
      }
      pending =
          static_cast<std::uint8_t>(pending | code << (2 * pending_count));
      if (++pending_count == 4) {
        packed.push_back(pending);
        pending = 0;
        pending_count = 0;
      }
      ++bases;
    }
  }

  void finish() {
    if (pending_count > 0) packed.push_back(pending);
    pending = 0;
    pending_count = 0;
  }
};

/// A Fa2Bit::feed backend: the pair-table loop, or the AVX2 blocks first.
struct FeedBackend {
  const char* name;
  void (*feed)(Fa2Bit&, std::string_view);
};

/// The backends this CPU can run: both where it has AVX2.
std::vector<FeedBackend> feed_backends() {
  std::vector<FeedBackend> backends{{"portable", &BlastScan::feed_portable}};
  if (uses_avx2()) backends.push_back({"avx2", &BlastScan::feed_avx2});
  return backends;
}

/// Feeds `chunks` in order and finishes.
Fa2Bit convert(const FeedBackend& backend,
               const std::vector<std::string_view>& chunks) {
  Fa2Bit conv;
  for (const std::string_view chunk : chunks) backend.feed(conv, chunk);
  conv.finish();
  return conv;
}

/// The converter's visible state equals the reference's.
::testing::AssertionResult same_state(const Fa2Bit& conv,
                                      const ReferenceFa2Bit& ref) {
  if (conv.packed() != ref.packed) {
    return ::testing::AssertionFailure() << "packed bytes differ";
  }
  if (conv.bases() != ref.bases || conv.ambiguous() != ref.ambiguous) {
    return ::testing::AssertionFailure()
           << "bases " << conv.bases() << " vs " << ref.bases
           << ", ambiguous " << conv.ambiguous() << " vs " << ref.ambiguous;
  }
  return ::testing::AssertionSuccess();
}

std::uint64_t below(Xoshiro256& rng, std::uint64_t n) { return rng() % n; }

/// One random FASTA character under a per-document noise level: mostly
/// bases (both cases), then whitespace, IUPAC codes and arbitrary bytes.
char random_fasta_char(Xoshiro256& rng, double noise) {
  static constexpr std::string_view kBases = "ACGTacgt";
  static constexpr std::string_view kSpace = " \t\r\n";
  static constexpr std::string_view kIupac = "NRYKMSWBDHVnrykmswbdhv-*";
  if (rng.uniform01() >= noise) return kBases[below(rng, kBases.size())];
  switch (below(rng, 4)) {
    case 0:
      return kSpace[below(rng, kSpace.size())];
    case 1:
      return kIupac[below(rng, kIupac.size())];
    case 2:
      return '>';
    default:
      return static_cast<char>(rng() & 0xFF);  // includes >= 0x80
  }
}

/// A random FASTA document: header lines (arbitrary bytes up to the
/// newline), sequence lines of up to `max_line` characters with LF or CRLF
/// endings, and noise.
std::string random_fasta(Xoshiro256& rng, std::size_t max_line = 90,
                         std::size_t max_bases = 600) {
  const double noise = std::vector<double>{0.0, 0.01, 0.1, 0.5}[below(rng, 4)];
  const std::size_t line = 1 + below(rng, max_line);
  std::string text;
  const std::size_t records = 1 + below(rng, 4);
  for (std::size_t r = 0; r < records; ++r) {
    if (below(rng, 3) != 0) {
      text += '>';
      for (std::uint64_t i = below(rng, 40); i > 0; --i) {
        const char c = static_cast<char>(rng() & 0xFF);
        text += c == '\n' ? ' ' : c;
      }
      text += below(rng, 2) == 0 ? "\n" : "\r\n";
    }
    const std::size_t bases = below(rng, max_bases);
    for (std::size_t i = 0; i < bases; ++i) {
      text += random_fasta_char(rng, noise);
      if ((i + 1) % line == 0) text += below(rng, 2) == 0 ? "\n" : "\r\n";
    }
    text += '\n';
  }
  return text;
}

/// Feeds `text` in random-length chunks to the reference and to each
/// backend, comparing the visible state after every chunk and after
/// finish().
void expect_same_conversion(Xoshiro256& rng, const std::string& text,
                            std::size_t max_chunk) {
  std::vector<std::string_view> chunks;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t n =
        std::min<std::size_t>(text.size() - at, 1 + below(rng, max_chunk));
    chunks.push_back(std::string_view(text).substr(at, n));
    at += n;
  }
  for (const FeedBackend& backend : feed_backends()) {
    SCOPED_TRACE(backend.name);
    Fa2Bit conv;
    ReferenceFa2Bit ref;
    std::size_t at = 0;
    for (const std::string_view chunk : chunks) {
      backend.feed(conv, chunk);
      ref.feed(chunk);
      at += chunk.size();
      ASSERT_TRUE(same_state(conv, ref)) << "after byte " << at;
    }
    conv.finish();
    ref.finish();
    EXPECT_TRUE(same_state(conv, ref));
  }
}

TEST(Fa2BitFuzz, MatchesCharacterReferenceOnRandomFasta) {
  Xoshiro256 rng(0xFA2B17);
  const int cases = scaled_cases(500);
  for (int c = 0; c < cases; ++c) {
    const std::string text = random_fasta(rng);
    SCOPED_TRACE("case " + std::to_string(c));
    // Whole document, small chunks (split headers, 1-3 pending bases) and
    // medium chunks (the four-base fast path across chunk edges).
    ReferenceFa2Bit ref;
    ref.feed(text);
    ref.finish();
    ASSERT_EQ(fa2bit(text), ref.packed);
    expect_same_conversion(rng, text, 7);
    expect_same_conversion(rng, text, 200);
    if (HasFatalFailure()) return;
  }
}

TEST(Fa2BitFuzz, LongLinesReachTheBulkLoop) {
  // Sequence lines of up to 4 KiB, so clean documents hold plain runs of
  // hundreds of bases: whole 32-character blocks for the AVX2 loop, cut
  // by chunk edges at every phase.
  Xoshiro256 rng(0x10B6);
  const int cases = scaled_cases(150);
  for (int c = 0; c < cases; ++c) {
    const std::string text = random_fasta(rng, 4096, 12000);
    SCOPED_TRACE("case " + std::to_string(c));
    ReferenceFa2Bit ref;
    ref.feed(text);
    ref.finish();
    ASSERT_EQ(fa2bit(text), ref.packed);
    for (const FeedBackend& backend : feed_backends()) {
      ASSERT_TRUE(same_state(convert(backend, {text}), ref)) << backend.name;
    }
    expect_same_conversion(rng, text, 100);
    expect_same_conversion(rng, text, 3000);
    if (HasFatalFailure()) return;
  }
}

TEST(Fa2BitFuzz, SpecialByteAtEveryOffsetOfAPlainRun) {
  // One byte that is not an upper-case base, at each offset of a 256-base
  // plain run: the block holding it must go to the pair-table loop (or,
  // for a lower-case base, stay in the vector loop) with the same result.
  // Each document is fed whole and split at every offset within 32
  // characters of the planted byte, which covers every split inside the
  // block that holds it.
  static constexpr std::string_view kSpecials(
      " \t\r\nNry-*>\x80\xC1\xDF\xFF\0acgt", 19);
  Xoshiro256 rng(0x5BEC);
  // A newline ends the header a planted '>' opens; more bases follow.
  std::string document = random_dna(rng, 256);
  document += '\n';
  document += random_dna(rng, 70);
  const auto backends = feed_backends();
  for (const char special : kSpecials) {
    for (std::size_t off = 0; off < 256; ++off) {
      std::string text = document;
      text[off] = special;
      SCOPED_TRACE("byte " + std::to_string(static_cast<unsigned char>(
                                 special)) +
                   " at " + std::to_string(off));
      ReferenceFa2Bit ref;
      ref.feed(text);
      ref.finish();
      const std::string_view view(text);
      const std::size_t from = off < 32 ? 0 : off - 32;
      for (const FeedBackend& backend : backends) {
        ASSERT_TRUE(same_state(convert(backend, {view}), ref))
            << backend.name << ", whole";
        for (std::size_t split = from; split <= off + 32; ++split) {
          ASSERT_TRUE(same_state(
              convert(backend, {view.substr(0, split), view.substr(split)}),
              ref))
              << backend.name << ", split " << split;
        }
      }
    }
  }
}

TEST(Fa2BitFuzz, EverySplitPointOfAShortDocument) {
  // Two-chunk splits at every offset, so the pending count and the header
  // state cross the chunk boundary in every combination.
  const std::string text =
      ">h1 \xC3\xA9\tx\r\nACGTNacg\r\ntTG>mid header\nGGA cc\tRY\xFF"
      "a\n>\n\nACGTACGTA";
  ReferenceFa2Bit whole;
  whole.feed(text);
  whole.finish();
  const std::string_view view(text);
  for (const FeedBackend& backend : feed_backends()) {
    for (std::size_t split = 0; split <= text.size(); ++split) {
      EXPECT_TRUE(same_state(
          convert(backend, {view.substr(0, split), view.substr(split)}),
          whole))
          << backend.name << ", split " << split;
    }
  }
}

TEST(Fa2BitFuzz, EveryByteValueClassifiesLikeTheReference) {
  // Each byte value alone, as a whole 32-character block, and as the last
  // character of a block of plain bases.
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    for (const std::string& text :
         {std::string(9, c), std::string(64, c),
          std::string(31, 'G') + c + std::string(32, 't')}) {
      ReferenceFa2Bit ref;
      ref.feed(text);
      ref.finish();
      for (const FeedBackend& backend : feed_backends()) {
        EXPECT_TRUE(same_state(convert(backend, {text}), ref))
            << backend.name << ", byte " << v << ", " << text.size()
            << " characters";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Extension stages

/// Per-base small extension.
std::vector<SeedMatch> reference_small_extension(
    std::span<const SeedMatch> matches, std::span<const std::uint8_t> db,
    std::uint64_t db_bases, const QueryIndex& index, int min_length) {
  std::vector<SeedMatch> kept;
  const auto query = index.query_packed();
  for (const SeedMatch& m : matches) {
    int length = 8;
    for (std::uint32_t i = 1; i <= 3; ++i) {
      if (m.db_pos < i || m.query_pos < i) break;
      if (base_at(db, m.db_pos - i) != base_at(query, m.query_pos - i)) break;
      ++length;
    }
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint64_t dp = m.db_pos + 8 + i;
      const std::uint64_t qp = m.query_pos + 8 + i;
      if (dp >= db_bases || qp >= index.query_bases()) break;
      if (base_at(db, dp) != base_at(query, qp)) break;
      ++length;
    }
    if (length >= min_length) kept.push_back(m);
  }
  return kept;
}

/// Per-base X-drop walk in one direction (step +1 right, -1 left).
int reference_extend(std::span<const std::uint8_t> db, std::uint64_t db_bases,
                     const QueryIndex& index, const SeedMatch& m, int step,
                     const UngappedParams& params, int* best_steps) {
  const auto query = index.query_packed();
  int score = 0;
  int best = 0;
  *best_steps = 0;
  for (int i = 1; i <= params.window; ++i) {
    const std::int64_t dp = std::int64_t{m.db_pos} + (step > 0 ? 7 + i : -i);
    const std::int64_t qp =
        std::int64_t{m.query_pos} + (step > 0 ? 7 + i : -i);
    if (dp < 0 || qp < 0 || dp >= static_cast<std::int64_t>(db_bases) ||
        qp >= static_cast<std::int64_t>(index.query_bases())) {
      break;
    }
    score += base_at(db, static_cast<std::uint64_t>(dp)) ==
                     base_at(query, static_cast<std::uint64_t>(qp))
                 ? params.match_reward
                 : params.mismatch_penalty;
    if (score > best) {
      best = score;
      *best_steps = i;
    }
    if (best - score >= params.x_drop) break;
  }
  return best;
}

std::vector<Alignment> reference_ungapped_extension(
    std::span<const SeedMatch> matches, std::span<const std::uint8_t> db,
    std::uint64_t db_bases, const QueryIndex& index,
    const UngappedParams& params) {
  std::vector<Alignment> out;
  for (const SeedMatch& m : matches) {
    int left_steps = 0;
    int right_steps = 0;
    const int left =
        reference_extend(db, db_bases, index, m, -1, params, &left_steps);
    const int right =
        reference_extend(db, db_bases, index, m, +1, params, &right_steps);
    const int total = 8 * params.match_reward + left + right;
    if (total >= params.threshold) {
      out.push_back(Alignment{
          m, total, static_cast<std::uint32_t>(8 + left_steps + right_steps)});
    }
  }
  return out;
}

/// Reference pipeline: seeds by substring search over the base text, then
/// the per-base extension stages.
std::vector<Alignment> reference_pipeline(const std::string& db,
                                          const std::string& query,
                                          std::span<const std::uint8_t> dbp,
                                          const QueryIndex& index,
                                          const UngappedParams& params) {
  std::vector<SeedMatch> seeds;
  for (std::size_t p = 0; p + 8 <= db.size(); p += 4) {
    for (std::size_t q = 0; q + 8 <= query.size(); ++q) {
      if (query.compare(q, 8, db, p, 8) == 0) {
        seeds.push_back(SeedMatch{static_cast<std::uint32_t>(p),
                                  static_cast<std::uint32_t>(q)});
      }
    }
  }
  const auto extended =
      reference_small_extension(seeds, dbp, db.size(), index, 11);
  return reference_ungapped_extension(extended, dbp, db.size(), index,
                                      params);
}

/// Packs `bases` and appends `slack` random bytes: the kernels must ignore
/// whatever follows the declared bases in the buffer.
std::vector<std::uint8_t> pack_with_slack(Xoshiro256& rng,
                                          const std::string& bases,
                                          std::size_t slack) {
  std::vector<std::uint8_t> packed = fa2bit(bases);
  if (bases.size() % 4 != 0) {
    // Garbage in the unused high fields of the last byte too.
    packed.back() = static_cast<std::uint8_t>(
        packed.back() | (rng() & 0xFF) << (2 * (bases.size() % 4)));
  }
  for (std::size_t i = 0; i < slack; ++i) {
    packed.push_back(static_cast<std::uint8_t>(rng()));
  }
  return packed;
}

/// `base` with a random substitution at each position with probability
/// `rate` (the substitute always differs).
std::string mutate(Xoshiro256& rng, std::string base, double rate) {
  static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  for (char& c : base) {
    if (rng.uniform01() < rate) {
      const char old = c;
      while (c == old) c = kBases[rng() & 3];
    }
  }
  return base;
}

/// Runs both extension stages and their references on `matches`.
void expect_same_extensions(std::span<const SeedMatch> matches,
                            std::span<const std::uint8_t> dbp,
                            std::uint64_t db_bases, const QueryIndex& index,
                            const UngappedParams& params, int min_length) {
  EXPECT_EQ(small_extension(matches, dbp, db_bases, index, min_length),
            reference_small_extension(matches, dbp, db_bases, index,
                                      min_length));
  EXPECT_EQ(ungapped_extension(matches, dbp, db_bases, index, params),
            reference_ungapped_extension(matches, dbp, db_bases, index,
                                         params));
}

struct Homology {
  std::string db;
  std::string query;
};

/// Random database and query that agree around a seed at (db_pos,
/// query_pos) as far as both sequences go, except at the listed offsets
/// from db_pos: offset -k is the k-th base left of the seed, offset 7 + k
/// the k-th base right of it.
Homology homology_with_mismatches(Xoshiro256& rng, std::size_t db_len,
                                  std::size_t query_len, std::size_t db_pos,
                                  std::size_t query_pos,
                                  const std::vector<int>& offsets) {
  Homology h{random_dna(rng, db_len), random_dna(rng, query_len)};
  // Copy the query over the database around the seed, as far as both go.
  const std::size_t left = std::min(db_pos, query_pos);
  const std::size_t right =
      std::min(db_len - db_pos, query_len - query_pos);
  h.db.replace(db_pos - left, left + right,
               h.query.substr(query_pos - left, left + right));
  static constexpr char kFlip[4] = {'C', 'A', 'T', 'G'};
  for (const int off : offsets) {
    const std::int64_t at = static_cast<std::int64_t>(db_pos) + off;
    if (at < 0 || at >= static_cast<std::int64_t>(db_len)) continue;
    char& c = h.db[static_cast<std::size_t>(at)];
    c = kFlip[std::string_view("ACGT").find(c)];
  }
  return h;
}

TEST(ExtensionDifferential, SeedsAtSequenceEdges) {
  Xoshiro256 rng(11);
  const UngappedParams params;
  for (const std::size_t db_len : {8u, 9u, 13u, 40u, 301u, 1024u}) {
    for (const std::size_t query_len : {8u, 11u, 64u, 257u}) {
      // Seeds at position 0 and at the last 8-mer, in each sequence.
      for (const std::size_t dp : {std::size_t{0}, db_len - 8}) {
        for (const std::size_t qp : {std::size_t{0}, query_len - 8}) {
          const Homology h =
              homology_with_mismatches(rng, db_len, query_len, dp, qp, {});
          const auto dbp = pack_with_slack(rng, h.db, below(rng, 12));
          const QueryIndex index(fa2bit(h.query), query_len);
          const std::vector<SeedMatch> m{SeedMatch{
              static_cast<std::uint32_t>(dp), static_cast<std::uint32_t>(qp)}};
          SCOPED_TRACE("db " + std::to_string(db_len) + " @" +
                       std::to_string(dp) + ", query " +
                       std::to_string(query_len) + " @" + std::to_string(qp));
          expect_same_extensions(m, dbp, db_len, index, params, 11);
          expect_same_extensions(m, dbp, db_len, index, params, 8);
        }
      }
    }
  }
}

TEST(ExtensionDifferential, ExtensionsReachTheWindow) {
  // Exact homology far wider than the window on both sides, with the seed
  // at every in-byte phase in both sequences.
  Xoshiro256 rng(12);
  for (const int window : {127, 128, 129}) {
    UngappedParams params;
    params.window = window;
    for (std::size_t dp = 400; dp < 404; ++dp) {
      for (std::size_t qp = 300; qp < 304; ++qp) {
        const Homology h =
            homology_with_mismatches(rng, 1000, 700, dp, qp, {});
        const auto dbp = pack_with_slack(rng, h.db, 0);
        const QueryIndex index(fa2bit(h.query), h.query.size());
        const std::vector<SeedMatch> m{SeedMatch{
            static_cast<std::uint32_t>(dp), static_cast<std::uint32_t>(qp)}};
        const auto got =
            ungapped_extension(m, dbp, h.db.size(), index, params);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].length, static_cast<std::uint32_t>(8 + 2 * window));
        expect_same_extensions(m, dbp, h.db.size(), index, params, 11);
      }
    }
  }
}

TEST(ExtensionDifferential, XDropCutoffsAroundWordEdges) {
  // Four adjacent mismatches drop the default score by 8 = x_drop, so the
  // cutoff fires on the last of them: place that step on both sides of
  // every 32-base word boundary the window spans, in both directions.
  Xoshiro256 rng(13);
  const UngappedParams params;
  for (int cut = 4; cut <= 128; ++cut) {
    const bool near_edge = cut % 32 <= 2 || cut % 32 >= 30 || cut < 8;
    if (!near_edge) continue;
    for (const bool right : {false, true}) {
      std::vector<int> offsets;
      for (int k = cut - 3; k <= cut; ++k) {
        offsets.push_back(right ? 7 + k : -k);
      }
      // A lone mismatch earlier in the walk lowers the best's step count.
      offsets.push_back(right ? 7 + cut / 2 : -(cut / 2));
      const std::size_t dp = 300 + below(rng, 4);
      const std::size_t qp = 200 + below(rng, 4);
      const Homology h =
          homology_with_mismatches(rng, 700, 500, dp, qp, offsets);
      const auto dbp = pack_with_slack(rng, h.db, below(rng, 9));
      const QueryIndex index(fa2bit(h.query), h.query.size());
      const std::vector<SeedMatch> m{SeedMatch{
          static_cast<std::uint32_t>(dp), static_cast<std::uint32_t>(qp)}};
      SCOPED_TRACE("cutoff at step " + std::to_string(cut) +
                   (right ? " right" : " left"));
      expect_same_extensions(m, dbp, h.db.size(), index, params, 11);
    }
  }
}

/// Scoring parameters across and beyond their usual ranges: rewards and
/// penalties of either sign, zero and negative X-drop, windows around the
/// word size.
UngappedParams random_params(Xoshiro256& rng) {
  UngappedParams p;
  if (below(rng, 4) == 0) return p;  // the defaults
  p.match_reward = static_cast<int>(below(rng, 7)) - 1;       // -1 .. 5
  p.mismatch_penalty = static_cast<int>(below(rng, 9)) - 6;   // -6 .. 2
  p.x_drop = static_cast<int>(below(rng, 30)) - 2;            // -2 .. 27
  static constexpr int kWindows[] = {0,  1,  3,  31,  32, 33,
                                     63, 64, 65, 128, 300};
  p.window = kWindows[below(rng, std::size(kWindows))];
  p.threshold = static_cast<int>(below(rng, 60)) - 10;
  return p;
}

TEST(ExtensionDifferential, RandomHomologiesAndParameters) {
  Xoshiro256 rng(14);
  const int cases = scaled_cases(500);
  for (int c = 0; c < cases; ++c) {
    const std::size_t query_len = 8 + below(rng, 400);
    const std::string query = random_dna(rng, query_len);
    std::string db = random_dna(rng, 8 + below(rng, 3000));
    // Planted copies of query stretches at several divergence levels.
    for (int k = static_cast<int>(below(rng, 6)); k > 0; --k) {
      const std::size_t len = std::min<std::size_t>(
          {1 + below(rng, 300), query_len, db.size()});
      const std::size_t q0 = below(rng, query_len - len + 1);
      const std::size_t d0 = below(rng, db.size() - len + 1);
      db.replace(d0, len,
                 mutate(rng, query.substr(q0, len), 0.15 * rng.uniform01()));
    }
    const auto dbp = pack_with_slack(rng, db, below(rng, 12));
    const QueryIndex index(fa2bit(query), query_len);
    // Any in-range seed, not only the ones seed matching would emit.
    std::vector<SeedMatch> matches;
    for (int k = 0; k < 40; ++k) {
      matches.push_back(SeedMatch{
          static_cast<std::uint32_t>(below(rng, db.size() - 7)),
          static_cast<std::uint32_t>(below(rng, query_len - 7))});
    }
    const auto seeds = seed_enumerate(seed_match(dbp, db.size(), index), dbp,
                                      index);
    matches.insert(matches.end(), seeds.begin(), seeds.end());
    const UngappedParams params = random_params(rng);
    SCOPED_TRACE("case " + std::to_string(c) + ": reward " +
                 std::to_string(params.match_reward) + ", penalty " +
                 std::to_string(params.mismatch_penalty) + ", x_drop " +
                 std::to_string(params.x_drop) + ", window " +
                 std::to_string(params.window));
    expect_same_extensions(matches, dbp, db.size(), index, params,
                           8 + static_cast<int>(below(rng, 8)));
    if (HasFailure()) return;
  }
}

TEST(ExtensionDifferential, PipelinePinnedOnPlantedHomologyChunk) {
  // The whole alignment list of one fixed planted-homology chunk, against
  // a pipeline built only from the references.
  Xoshiro256 rng(15);
  const std::string query = random_dna(rng, 256);
  std::string db = random_dna(rng, 1 << 16);
  plant_homologies(db, query, rng, 24, 96, 0.03);
  const auto dbp = fa2bit(db);
  const QueryIndex index(fa2bit(query), query.size());
  for (const int threshold : {12, 25}) {
    UngappedParams params;
    params.threshold = threshold;
    const auto got = blastn_pipeline(dbp, db.size(), index, params);
    EXPECT_GE(got.size(), 24u);
    EXPECT_EQ(got, reference_pipeline(db, query, dbp, index, params));
  }
}

}  // namespace
}  // namespace streamcalc::kernels
