// The stages workload: the live kernels of measured_bitw and
// measured_blast on seeded data, in one thread, with no curve algebra.
//
//   BITW:  64 KiB telemetry chunk -> lz4lite compress -> AES-256-CBC
//          encrypt -> decrypt -> lz4lite decompress (round trip checked
//          byte for byte)
//   BLAST: 256 Kbase FASTA chunk -> fa2bit -> seed_match + seed_enumerate
//          -> small + ungapped extension (alignment count checked against
//          the library pipeline run before the timed passes)
//
// The two chains alternate chunk by chunk until the run's time is up.
// Per-stage rates in the traced run: BITW stages by their own input bytes
// (as the paper's Table 2), BLAST stages by FASTA bytes (input-normalized,
// as its Fig. 3), so 1/blast = sum of 1/stage.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/aes.hpp"
#include "kernels/blastn.hpp"
#include "kernels/fa2bit.hpp"
#include "kernels/lz4lite.hpp"
#include "kernels/testdata.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace k = streamcalc::kernels;
using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kTelemetryChunk = 64 * 1024;
constexpr std::size_t kTelemetryChunks = 8;
constexpr std::size_t kFastaChunk = 256 * 1024;
constexpr std::size_t kFastaChunks = 8;
constexpr std::size_t kQueryBases = 256;
constexpr double kMiB = 1024.0 * 1024.0;

/// Seeded inputs; generating them is not part of set-up.
struct Inputs {
  std::vector<Bytes> telemetry;
  std::vector<std::string> fasta;
  std::string query;
  Bytes key;
  k::AesBlock iv{};

  explicit Inputs(std::uint64_t seed) {
    streamcalc::util::Xoshiro256 rng(seed);
    // Redundancy stratified over [0.2, 0.95): every seed gets the same
    // spread of compression ratios, hence of AES work per chunk.
    for (std::size_t i = 0; i < kTelemetryChunks; ++i) {
      const double t = (static_cast<double>(i) + rng.uniform01()) /
                       static_cast<double>(kTelemetryChunks);
      telemetry.push_back(
          k::telemetry_text(rng, kTelemetryChunk, 0.2 + 0.75 * t));
    }
    query = k::random_dna(rng, kQueryBases);
    std::string db = k::random_dna(rng, kFastaChunk * kFastaChunks);
    k::plant_homologies(db, query, rng, 64, 96, 0.03);
    for (std::size_t i = 0; i < kFastaChunks; ++i) {
      fasta.push_back(db.substr(i * kFastaChunk, kFastaChunk));
    }
    for (int i = 0; i < 32; ++i) key.push_back(static_cast<std::uint8_t>(rng()));
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
  }
};

/// What set-up builds: the key schedule and the query index.
struct Kernels {
  k::Aes aes;
  k::QueryIndex index;

  explicit Kernels(const Inputs& in)
      : aes(in.key), index(k::fa2bit(in.query), in.query.size()) {}
};

/// One telemetry chunk through the four BITW stages; false when the round
/// trip is not byte-identical. `packed_size` is the compressed size.
bool bitw_chain(const Kernels& kn, const Inputs& in, const Bytes& chunk,
                Spans& spans, std::size_t& packed_size) {
  const Bytes packed =
      spans.span("kernels.lz4_compress", [&] { return k::lz4lite_compress(chunk); });
  // CBC moves whole blocks: zero-pad the compressed chunk.
  Bytes padded = packed;
  padded.resize((packed.size() + 15) / 16 * 16, 0);
  packed_size = packed.size();
  const Bytes cipher = spans.span(
      "kernels.aes_encrypt", [&] { return kn.aes.cbc_encrypt(padded, in.iv); });
  Bytes plain = spans.span("kernels.aes_decrypt",
                           [&] { return kn.aes.cbc_decrypt(cipher, in.iv); });
  plain.resize(packed.size());
  const Bytes out = spans.span("kernels.lz4_decompress",
                               [&] { return k::lz4lite_decompress(plain); });
  return out == chunk;
}

/// One FASTA chunk through the three BLAST stages; returns the number of
/// alignments found.
std::size_t blast_chain(const Kernels& kn, const std::string& fasta,
                        Spans& spans) {
  const Bytes packed = spans.span("kernels.fa2bit", [&] {
    k::Fa2Bit conv;
    conv.feed(fasta);
    conv.finish();
    return conv.packed();
  });
  const std::uint64_t bases = fasta.size();
  const std::vector<k::SeedMatch> seeds = spans.span("kernels.seed", [&] {
    const auto hits = k::seed_match(packed, bases, kn.index);
    return k::seed_enumerate(hits, packed, kn.index);
  });
  return spans.span("kernels.extension", [&] {
    const auto survivors =
        k::small_extension(seeds, packed, bases, kn.index);
    return k::ungapped_extension(survivors, packed, bases, kn.index).size();
  });
}

struct PhaseStats {
  double packed_bytes_per_pass = 0.0;  ///< lz4 decompress input
  double padded_bytes_per_pass = 0.0;  ///< AES input (whole blocks)
  std::vector<std::vector<double>> bitw_us;   ///< [chunk][repetition]
  std::vector<std::vector<double>> blast_us;  ///< [chunk][repetition]
  std::vector<double> reference_us;           ///< one per CPU change
};

/// CPUs change every few chunks; a pass runs every telemetry chunk once
/// and every FASTA chunk kTelemetryChunks / kFastaChunks times.
constexpr std::size_t kChunksPerCpu = 4;
static_assert(kTelemetryChunks % kFastaChunks == 0,
              "a pass covers the FASTA chunks a whole number of times");

/// Passes until `seconds` have elapsed (at least eight).
PhaseStats run_phase(const Kernels& kn, const Inputs& in,
                     const std::vector<std::size_t>& reference,
                     double seconds, Spans& spans, Result& result) {
  PhaseStats st;
  st.bitw_us.resize(kTelemetryChunks);
  st.blast_us.resize(kFastaChunks);
  CpuRotation cpus;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  for (std::size_t pass = 0; pass < 8 || Clock::now() < deadline; ++pass) {
    for (std::size_t i = 0; i < kTelemetryChunks; ++i) {
      if (i % kChunksPerCpu == 0) {
        cpus.next();
        st.reference_us.push_back(reference_loop_us());
      }
      result.attempt();
      Clock::time_point t0 = Clock::now();
      std::size_t packed = 0;
      const bool round_trip =
          bitw_chain(kn, in, in.telemetry[i], spans, packed);
      st.bitw_us[i].push_back(us_between(t0, Clock::now()));
      if (pass == 0) {
        st.packed_bytes_per_pass += static_cast<double>(packed);
        st.padded_bytes_per_pass +=
            static_cast<double>((packed + 15) / 16 * 16);
      }
      if (!round_trip) {
        result.fail("BITW round trip differs on chunk " + std::to_string(i));
      }

      const std::size_t j = i % kFastaChunks;
      result.attempt();
      t0 = Clock::now();
      const std::size_t alignments = blast_chain(kn, in.fasta[j], spans);
      st.blast_us[j].push_back(us_between(t0, Clock::now()));
      if (alignments != reference[j]) {
        result.fail("BLAST chunk " + std::to_string(j) + ": " +
                    std::to_string(alignments) + " alignments, reference " +
                    std::to_string(reference[j]));
      }
    }
  }
  return st;
}

}  // namespace

int run_stages(const Args& args) {
  Result result;
  const Inputs in(args.seed);
  Spans off(false);

  // Set-up: key schedule, query index, and a warm-up pass of each chain.
  const Clock::time_point t0 = Clock::now();
  // QueryIndex holds a 64Ki-entry table: keep it off the stack.
  const auto kernels = std::make_unique<const Kernels>(in);
  const Kernels& kn = *kernels;
  std::size_t warm_packed = 0;
  const bool warm_ok =
      bitw_chain(kn, in, in.telemetry.front(), off, warm_packed);
  (void)blast_chain(kn, in.fasta.front(), off);
  const double setup_s = us_between(t0, Clock::now()) * 1e-6;
  if (args.setup_only) {
    result.attempt();
    if (!warm_ok) result.fail("BITW round trip differs in the warm-up");
    result.metric("setup_s", setup_s);
    result.print();
    return result.failed() == 0 ? 0 : 1;
  }

  // Reference alignment counts: the library's whole-pipeline entry point.
  std::vector<std::size_t> reference;
  for (const std::string& fasta : in.fasta) {
    const Bytes packed = k::fa2bit(fasta);
    reference.push_back(
        k::blastn_pipeline(packed, fasta.size(), kn.index).size());
  }

  const PhaseStats e2e =
      run_phase(kn, in, reference, args.trace ? args.seconds / 3.0 : args.seconds,
                off, result);
  // 16 BITW chunks or 4 BLAST chunks make one MiB of input.
  const Fastest bitw = fastest_repetitions(e2e.bitw_us);
  const Fastest blast = fastest_repetitions(e2e.blast_us);
  const double bitw_mibps = bitw.per_s * kTelemetryChunk / kMiB;
  const double blast_mibps = blast.per_s * kFastaChunk / kMiB;
  if (!args.trace) {
    result.metric("throughput_per_s", bitw.per_s);
    result.metric("secondary_per_s", blast.per_s);
    result.metric("latency_p50_us", quantile(bitw.unit_us, 0.5));
    result.metric("latency_p95_us", quantile(bitw.unit_us, 0.95));
    result.metric("secondary_p50_us", quantile(blast.unit_us, 0.5));
    result.metric("rss_mb", proc_status_kb("self", "VmHWM") / 1024.0);
    result.note("stages.bitw_mibps", bitw_mibps);
    result.note("stages.blast_mibps", blast_mibps);
    result.note("passes", static_cast<double>(e2e.bitw_us.front().size()));
    result.note("host.reference_us",
                fastest_repetitions({e2e.reference_us}).unit_us.front());
    result.print();
    return result.failed() == 0 ? 0 : 1;
  }

  Spans spans(true);
  const PhaseStats tr = run_phase(kn, in, reference, args.seconds * 2.0 / 3.0,
                                  spans, result);
  // Stage rates over each chunk's fastest share of repetitions, like the
  // end-to-end metrics; the k-th call of a stage ran chunk k mod the
  // chunk count.
  const auto stage_rate = [&](const char* layer, std::size_t chunks,
                              double bytes_per_cycle) {
    const std::vector<double>& calls = spans.samples(layer);
    std::vector<std::vector<double>> by_chunk(chunks);
    for (std::size_t k = 0; k < calls.size(); ++k) {
      by_chunk[k % chunks].push_back(calls[k]);
    }
    const double cycles_per_s = fastest_repetitions(by_chunk).per_s /
                                static_cast<double>(chunks);
    return bytes_per_cycle * cycles_per_s / kMiB;
  };
  const double telemetry_bytes = kTelemetryChunks * kTelemetryChunk;
  const double fasta_bytes = kFastaChunks * kFastaChunk;
  result.metric("kernels.lz4_compress_mibps",
                stage_rate("kernels.lz4_compress", kTelemetryChunks,
                           telemetry_bytes));
  result.metric("kernels.aes_encrypt_mibps",
                stage_rate("kernels.aes_encrypt", kTelemetryChunks,
                           tr.padded_bytes_per_pass));
  result.metric("kernels.aes_decrypt_mibps",
                stage_rate("kernels.aes_decrypt", kTelemetryChunks,
                           tr.padded_bytes_per_pass));
  result.metric("kernels.lz4_decompress_mibps",
                stage_rate("kernels.lz4_decompress", kTelemetryChunks,
                           tr.packed_bytes_per_pass));
  result.metric("kernels.fa2bit_mibps",
                stage_rate("kernels.fa2bit", kFastaChunks, fasta_bytes));
  result.metric("kernels.seed_mibps",
                stage_rate("kernels.seed", kFastaChunks, fasta_bytes));
  result.metric("kernels.extension_mibps",
                stage_rate("kernels.extension", kFastaChunks, fasta_bytes));
  const double traced_bitw =
      fastest_repetitions(tr.bitw_us).per_s * kTelemetryChunk / kMiB;
  result.metric("trace.slowdown", bitw_mibps / traced_bitw);
  result.metric("host.reference_us",
                fastest_repetitions({tr.reference_us}).unit_us.front());
  result.note("untraced.stages.bitw_mibps", bitw_mibps);
  result.note("traced.stages.bitw_mibps", traced_bitw);
  result.note("untraced.stages.blast_mibps", blast_mibps);
  result.note("traced.stages.blast_mibps",
              fastest_repetitions(tr.blast_us).per_s * kFastaChunk / kMiB);
  result.print();
  return result.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
