#include "kernels/blastn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "kernels/cpu.hpp"
#include "kernels/fa2bit.hpp"
#include "kernels/scan_impl.hpp"
#include "kernels/testdata.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::kernels {
namespace {

std::vector<std::uint8_t> pack(const std::string& bases) {
  return fa2bit(bases);
}

/// A seed_match backend: the portable loop, or the AVX2 gathers.
struct SeedMatchBackend {
  const char* name;
  std::vector<std::uint32_t> (*run)(std::span<const std::uint8_t>,
                                    std::uint64_t, const QueryIndex&);
};

/// The backends this CPU can run: both where it has AVX2.
std::vector<SeedMatchBackend> seed_match_backends() {
  std::vector<SeedMatchBackend> backends{
      {"portable", &BlastScan::seed_match_portable}};
  if (uses_avx2()) backends.push_back({"avx2", &BlastScan::seed_match_avx2});
  return backends;
}

/// Character-level seed matching: every byte-aligned database position
/// whose 8-mer occurs in the query text.
std::vector<std::uint32_t> naive_seed_match(const std::string& db,
                                            const std::string& query) {
  std::vector<std::uint32_t> hits;
  for (std::size_t p = 0; p + 8 <= db.size(); p += 4) {
    if (query.find(db.substr(p, 8)) != std::string::npos) {
      hits.push_back(static_cast<std::uint32_t>(p));
    }
  }
  return hits;
}

TEST(QueryIndex, FindsAllKmers) {
  const std::string query = "ACGTACGTAA";  // 10 bases -> 3 8-mers
  const auto packed = pack(query);
  const QueryIndex index(packed, query.size());
  EXPECT_EQ(index.query_bases(), 10u);
  const std::uint16_t first = QueryIndex::kmer_at(packed, 0);
  ASSERT_TRUE(index.contains(first));
  EXPECT_EQ(index.positions(first).front(), 0u);
}

TEST(QueryIndex, RepeatedKmerListsAllPositions) {
  // "ACGTACGTACGT": the 8-mer ACGTACGT occurs at 0 and 4.
  const std::string query = "ACGTACGTACGT";
  const auto packed = pack(query);
  const QueryIndex index(packed, query.size());
  const std::uint16_t k = QueryIndex::kmer_at(packed, 0);
  EXPECT_EQ(index.positions(k).size(), 2u);
}

TEST(QueryIndex, RejectsTinyQuery) {
  const auto packed = pack("ACGT");
  EXPECT_THROW(QueryIndex(packed, 4), util::PreconditionError);
}

TEST(SeedMatchStage, FindsPlantedExactSeed) {
  util::Xoshiro256 rng(1);
  std::string db = random_dna(rng, 4096);
  const std::string query = random_dna(rng, 64);
  // Plant the query's first 8 bases at a byte-aligned position.
  const std::size_t at = 1024;
  db.replace(at, 8, query.substr(0, 8));
  const auto dbp = pack(db);
  const auto qp = pack(query);
  const QueryIndex index(qp, query.size());
  const auto hits = seed_match(dbp, db.size(), index);
  EXPECT_NE(std::find(hits.begin(), hits.end(), at), hits.end());
}

TEST(SeedMatchStage, IsAHighlySelectiveFilter) {
  // Random db vs 64-base query: 57 query 8-mers out of 65536 possible, so
  // roughly 0.09% of byte-aligned positions pass (paper Section 4.1:
  // "eliminating the vast majority of input 8-mers").
  util::Xoshiro256 rng(2);
  const std::string db = random_dna(rng, 1 << 18);
  const std::string query = random_dna(rng, 64);
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const auto hits = seed_match(dbp, db.size(), index);
  const double pass_fraction =
      static_cast<double>(hits.size()) / (static_cast<double>(db.size()) / 4);
  EXPECT_LT(pass_fraction, 0.01);
}

TEST(SeedEnumerateStage, OneMatchPerQueryOccurrence) {
  const std::string query = "ACGTACGTACGT";  // ACGTACGT at q=0 and q=4
  std::string db = std::string(64, 'T');
  db.replace(16, 8, "ACGTACGT");
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const auto hits = seed_match(dbp, db.size(), index);
  const auto matches = seed_enumerate(hits, dbp, index);
  // db position 16 matches query positions 0 and 4.
  int found = 0;
  for (const auto& m : matches) {
    if (m.db_pos == 16) ++found;
  }
  EXPECT_EQ(found, 2);
}

TEST(SmallExtensionStage, KeepsExtendableMatches) {
  // Plant an 8-base seed with 3 extra matching bases on each side: total
  // 14 >= 11 passes; a bare 8-base seed in mismatching context fails.
  util::Xoshiro256 rng(3);
  const std::string query = random_dna(rng, 64);
  std::string db = random_dna(rng, 2048);
  const std::size_t q0 = 20;
  const std::size_t good_at = 512;
  db.replace(good_at - 3, 14, query.substr(q0 - 3, 14));
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const SeedMatch good{static_cast<std::uint32_t>(good_at),
                       static_cast<std::uint32_t>(q0)};
  const std::vector<SeedMatch> input{good};
  const auto kept =
      small_extension(input, dbp, db.size(), index, /*min_length=*/11);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], good);
}

TEST(SmallExtensionStage, DropsUnextendableMatches) {
  // A seed surrounded by guaranteed mismatches extends to exactly 8 < 11.
  const std::string query = "TTTAAAAAAAATTT";  // 8 A's flanked by T's
  std::string db = "GGGAAAAAAAAGGG";           // same A's flanked by G's
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const SeedMatch m{3, 3};
  const std::vector<SeedMatch> input{m};
  EXPECT_TRUE(small_extension(input, dbp, db.size(), index, 11).empty());
  EXPECT_EQ(small_extension(input, dbp, db.size(), index, 8).size(), 1u);
}

TEST(UngappedExtensionStage, ScoresPlantedHomology) {
  util::Xoshiro256 rng(4);
  const std::string query = random_dna(rng, 128);
  std::string db = random_dna(rng, 4096);
  // Plant a 64-base exact homology at a byte-aligned position.
  db.replace(2048, 64, query.substr(32, 64));
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const SeedMatch m{2048, 32};
  const std::vector<SeedMatch> input{m};
  const auto alignments =
      ungapped_extension(input, dbp, db.size(), index);
  ASSERT_EQ(alignments.size(), 1u);
  // 64 exact bases minus whatever flanks: score at least ~40.
  EXPECT_GE(alignments[0].score, 40);
  EXPECT_GE(alignments[0].length, 40u);
}

TEST(UngappedExtensionStage, ThresholdFilters) {
  util::Xoshiro256 rng(5);
  const std::string query = random_dna(rng, 64);
  std::string db = random_dna(rng, 2048);
  db.replace(512, 8, query.substr(8, 8));  // bare seed, random context
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const SeedMatch m{512, 8};
  UngappedParams strict;
  strict.threshold = 30;  // a bare 8-base seed scores ~8
  const std::vector<SeedMatch> input{m};
  EXPECT_TRUE(
      ungapped_extension(input, dbp, db.size(), index, strict).empty());
}

TEST(BlastnPipeline, EndToEndFindsPlantedHomologies) {
  util::Xoshiro256 rng(6);
  const std::string query = random_dna(rng, 256);
  std::string db = random_dna(rng, 1 << 16);
  plant_homologies(db, query, rng, /*count=*/5, /*length=*/80,
                   /*mutation_rate=*/0.02);
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  UngappedParams params;
  params.threshold = 25;
  const auto alignments = blastn_pipeline(dbp, db.size(), index, params);
  // At least some of the five planted homologies must surface (each has
  // ~20 byte-aligned 8-mer anchors; mutations may destroy a few).
  EXPECT_GE(alignments.size(), 3u);
  for (const auto& a : alignments) {
    EXPECT_GE(a.score, params.threshold);
  }
}

TEST(BlastnPipeline, CleanDatabaseYieldsNothing) {
  // A database with no homology at the strict threshold.
  util::Xoshiro256 rng(7);
  const std::string query = random_dna(rng, 64);
  const std::string db = random_dna(rng, 1 << 15);
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  UngappedParams params;
  params.threshold = 40;
  EXPECT_TRUE(blastn_pipeline(dbp, db.size(), index, params).empty());
}

TEST(PipelineStagesAreFilters, VolumeShrinksThroughStages) {
  // The paper's observation: each stage eliminates most of its input.
  util::Xoshiro256 rng(8);
  const std::string query = random_dna(rng, 256);
  std::string db = random_dna(rng, 1 << 17);
  plant_homologies(db, query, rng, 8, 64, 0.05);
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const auto hits = seed_match(dbp, db.size(), index);
  const auto matches = seed_enumerate(hits, dbp, index);
  const auto extended = small_extension(matches, dbp, db.size(), index);
  EXPECT_LT(hits.size(), db.size() / 4 / 10);   // seed match: >90% filtered
  EXPECT_LT(extended.size(), matches.size());   // small ext filters further
  EXPECT_GE(matches.size(), hits.size());       // enumeration expands
}


TEST(SeedMatchStage, DifferentialAgainstNaiveScan) {
  // Compare the packed-byte-pair implementation, on each backend, against
  // a character-level reference over every byte-aligned position.
  util::Xoshiro256 rng(99);
  for (int iter = 0; iter < 5; ++iter) {
    const std::string query =
        random_dna(rng, 48 + 16 * static_cast<std::size_t>(iter));
    std::string db = random_dna(rng, 8192);
    plant_homologies(db, query, rng, 3, 32, 0.0);
    const auto dbp = pack(db);
    const QueryIndex index(pack(query), query.size());
    const auto expected = naive_seed_match(db, query);
    EXPECT_EQ(seed_match(dbp, db.size(), index), expected)
        << "iter " << iter;
    for (const auto& backend : seed_match_backends()) {
      EXPECT_EQ(backend.run(dbp, db.size(), index), expected)
          << backend.name << ", iter " << iter;
    }
  }
}

TEST(SeedMatchStage, BackendsMatchNaiveScanAtEveryLength) {
  // Every database length from 8 to 1,100 bases: every residue of the
  // AVX2 backend's 8-key step and the last 16-byte load that fits before
  // the buffer ends. Query 8-mers sit at the first or the last key of two
  // steps in three, and at the database's last key or (even lengths) at
  // the first key past it. Each database is scanned in a buffer of exactly
  // the bytes it packs to and in one that holds 64 more bases.
  util::Xoshiro256 rng(100);
  const std::string query = random_dna(rng, 64);
  const QueryIndex index(pack(query), query.size());
  const auto backends = seed_match_backends();
  for (std::size_t len = 8; len <= 1100; ++len) {
    std::string text = random_dna(rng, len + 64);
    const std::size_t keys = (len - 8) / 4 + 1;
    const auto plant = [&](std::size_t key) {
      text.replace(4 * key, 8, query.substr(rng() % (query.size() - 7), 8));
    };
    for (std::size_t step = 0; 8 * step < keys; ++step) {
      const std::size_t first = 8 * step;
      const std::size_t last = std::min(first + 7, keys - 1);
      if ((step + len) % 3 == 0) plant(first);
      if ((step + len) % 3 == 1) plant(last);
    }
    const bool past_end = len % 2 == 0;
    plant(past_end ? keys : keys - 1);
    const std::string db = text.substr(0, len);
    const auto expected = naive_seed_match(db, query);
    if (!past_end) {
      ASSERT_FALSE(expected.empty()) << len << " bases";
    }
    // Copies of exactly their size (fa2bit's buffer may have spare
    // capacity), so the sanitizers see any read past the last byte.
    for (const std::string& packed_text : {db, text}) {
      const auto packed = pack(packed_text);
      const std::vector<std::uint8_t> dbp(packed.begin(), packed.end());
      for (const auto& backend : backends) {
        ASSERT_EQ(backend.run(dbp, len, index), expected)
            << backend.name << ", " << len << " bases in " << dbp.size()
            << " bytes";
      }
    }
  }
}

TEST(SeedEnumerateStage, DifferentialAgainstNaiveScan) {
  util::Xoshiro256 rng(101);
  const std::string query = random_dna(rng, 64);
  std::string db = random_dna(rng, 4096);
  plant_homologies(db, query, rng, 4, 24, 0.0);
  const auto dbp = pack(db);
  const QueryIndex index(pack(query), query.size());
  const auto hits = seed_match(dbp, db.size(), index);
  const auto matches = seed_enumerate(hits, dbp, index);

  std::vector<SeedMatch> expected;
  for (std::size_t p = 0; p + 8 <= db.size(); p += 4) {
    const std::string kmer = db.substr(p, 8);
    for (std::size_t q = 0; q + 8 <= query.size(); ++q) {
      if (query.compare(q, 8, kmer) == 0) {
        expected.push_back(SeedMatch{static_cast<std::uint32_t>(p),
                                     static_cast<std::uint32_t>(q)});
      }
    }
  }
  // Both are ordered by db position; within a position, by query position
  // (the index stores query positions in increasing order).
  EXPECT_EQ(matches, expected);
}

// Hostile inputs get a PreconditionError, never an out-of-bounds read.

TEST(StagePreconditions, SeedMatchRejectsBasesPastThePackedBuffer) {
  const auto packed = pack(std::string(64, 'A'));
  const QueryIndex index(pack("ACGTACGTAC"), 10);
  EXPECT_NO_THROW(seed_match(packed, 4 * packed.size(), index));
  EXPECT_THROW(seed_match(packed, 4 * packed.size() + 1, index),
               util::PreconditionError);
  EXPECT_THROW(seed_match(packed, 4 * packed.size() + 4, index),
               util::PreconditionError);
  EXPECT_THROW(seed_match({}, 8, index), util::PreconditionError);
  for (const auto& backend : seed_match_backends()) {
    EXPECT_THROW(backend.run(packed, 4 * packed.size() + 1, index),
                 util::PreconditionError)
        << backend.name;
    EXPECT_THROW(backend.run({}, 8, index), util::PreconditionError)
        << backend.name;
  }
}

TEST(StagePreconditions, RejectPositionsBeyond32Bits) {
  // The length check comes first, so no 1 GiB buffer is needed.
  const auto packed = pack(std::string(64, 'A'));
  const QueryIndex index(pack("ACGTACGTAC"), 10);
  const std::uint64_t huge = std::uint64_t{1} << 32;
  const std::vector<SeedMatch> none;
  EXPECT_THROW(seed_match(packed, huge, index), util::PreconditionError);
  EXPECT_THROW(small_extension(none, packed, huge, index),
               util::PreconditionError);
  EXPECT_THROW(ungapped_extension(none, packed, huge, index),
               util::PreconditionError);
  EXPECT_THROW(blastn_pipeline(packed, huge, index), util::PreconditionError);
  EXPECT_THROW(QueryIndex(packed, huge), util::PreconditionError);
}

TEST(StagePreconditions, SeedEnumerateRejectsForeignPositions) {
  const std::string db(64, 'A');
  const auto packed = pack(db);
  const QueryIndex index(pack("AAAAAAAAAA"), 10);
  const std::vector<std::uint32_t> last{56};
  EXPECT_EQ(seed_enumerate(last, packed, index).size(), 3u);
  const std::vector<std::uint32_t> past{60};       // 8-mer runs off the end
  const std::vector<std::uint32_t> far{1u << 30};  // far outside
  const std::vector<std::uint32_t> unaligned{5};   // not byte-aligned
  EXPECT_THROW(seed_enumerate(past, packed, index), util::PreconditionError);
  EXPECT_THROW(seed_enumerate(far, packed, index), util::PreconditionError);
  EXPECT_THROW(seed_enumerate(unaligned, packed, index),
               util::PreconditionError);
}

TEST(StagePreconditions, ExtensionsRejectBadLengthsAndMatches) {
  const std::string db(64, 'A');
  const auto packed = pack(db);
  const QueryIndex index(pack(std::string(20, 'A')), 20);
  const std::vector<SeedMatch> ok{{56, 12}};
  EXPECT_EQ(small_extension(ok, packed, db.size(), index).size(), 1u);
  EXPECT_EQ(ungapped_extension(ok, packed, db.size(), index).size(), 1u);
  const std::vector<SeedMatch> none;
  EXPECT_THROW(small_extension(none, packed, db.size() + 1, index),
               util::PreconditionError);
  EXPECT_THROW(ungapped_extension(none, packed, db.size() + 1, index),
               util::PreconditionError);
  // Seeds whose 8-mer leaves the database or the query.
  for (const SeedMatch bad : {SeedMatch{57, 0}, SeedMatch{1u << 31, 0},
                              SeedMatch{0, 13}, SeedMatch{0, 1u << 31}}) {
    const std::vector<SeedMatch> m{bad};
    EXPECT_THROW(small_extension(m, packed, db.size(), index),
                 util::PreconditionError);
    EXPECT_THROW(ungapped_extension(m, packed, db.size(), index),
                 util::PreconditionError);
  }
}

TEST(StagePreconditions, PipelineAndKmerAtRejectOverruns) {
  const auto packed = pack(std::string(64, 'C'));
  const QueryIndex index(pack("ACGTACGTAC"), 10);
  EXPECT_THROW(blastn_pipeline(packed, 4 * packed.size() + 4, index),
               util::PreconditionError);
  EXPECT_THROW(QueryIndex::kmer_at(packed, 4 * packed.size() - 7),
               util::PreconditionError);
  EXPECT_EQ(QueryIndex::kmer_at(packed, 4 * packed.size() - 8), 0x5555);
}

}  // namespace
}  // namespace streamcalc::kernels
