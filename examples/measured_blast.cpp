// The paper's methodology live, for the BLAST application: run the real
// BLASTN stage kernels (kernels/fa2bit.hpp, kernels/blastn.hpp) on a
// synthetic DNA database with planted homologies, measure each stage in
// isolation — including each stage's observed data-volume ratio, i.e. how
// aggressively it filters — and feed the measurements into the
// network-calculus model, the queueing baseline and the simulator.
//
// This is the software analogue of the paper's FPGA/GPU deployment: the
// absolute rates are host-CPU rates, but the *structure* the paper relies
// on (fa_2bit's 4:1 packing, seed matching as a drastic filter, extensions
// trimming the survivors) emerges from real computation.
#include <cstdio>
#include <cstring>

#include "kernels/blastn.hpp"
#include "kernels/cpu.hpp"
#include "kernels/fa2bit.hpp"
#include "kernels/measure.hpp"
#include "kernels/testdata.hpp"
#include "netcalc/pipeline.hpp"
#include "queueing/mm1.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "certify/postflight.hpp"
#include "diagnostics/lint.hpp"

namespace {

int run(const streamcalc::util::Context& ctx) {
  using namespace streamcalc;
  using namespace util::literals;
  namespace k = kernels;

  std::printf("== Live-measured BLASTN pipeline ==\n\n");

  // Workload: a 4 Mbase database with homologies of a 256-base query.
  util::Xoshiro256 rng(7);
  const std::string query = k::random_dna(rng, 256);
  std::string db = k::random_dna(rng, 4 << 20);
  k::plant_homologies(db, query, rng, 64, 96, 0.03);
  const k::QueryIndex index(k::fa2bit(query), query.size());

  // Chunk the FASTA database for per-block measurement (256 Kbase chunks).
  constexpr std::size_t kChunkBases = 256 * 1024;
  std::vector<std::vector<std::uint8_t>> fasta_chunks;
  std::vector<std::vector<std::uint8_t>> packed_chunks;
  std::vector<std::vector<std::uint8_t>> match_chunks;  // serialized seeds
  for (std::size_t off = 0; off + kChunkBases <= db.size();
       off += kChunkBases) {
    fasta_chunks.emplace_back(db.begin() + static_cast<std::ptrdiff_t>(off),
                              db.begin() +
                                  static_cast<std::ptrdiff_t>(off +
                                                              kChunkBases));
    packed_chunks.push_back(
        k::fa2bit({db.data() + off, kChunkBases}));
    // Pre-compute this chunk's seed matches for the extension stage.
    const auto hits =
        k::seed_match(packed_chunks.back(), kChunkBases, index);
    const auto seeds = k::seed_enumerate(hits, packed_chunks.back(), index);
    std::vector<std::uint8_t> bytes(seeds.size() * sizeof(k::SeedMatch));
    if (!seeds.empty()) {
      std::memcpy(bytes.data(), seeds.data(), bytes.size());
    } else {
      bytes.resize(sizeof(k::SeedMatch));  // measure harness needs >0 bytes
    }
    match_chunks.push_back(std::move(bytes));
  }

  // --- Isolated stage measurements ---------------------------------------
  const auto m_fa2bit = k::measure_stage(
      "fa_2bit",
      [](std::span<const std::uint8_t> b) {
        k::Fa2Bit conv;
        conv.feed({reinterpret_cast<const char*>(b.data()), b.size()});
        conv.finish();
        return conv.packed().size();
      },
      fasta_chunks);

  const auto m_seed = k::measure_stage(
      "seed_match_enum",
      [&](std::span<const std::uint8_t> b) {
        const std::uint64_t bases = b.size() * 4;
        const auto hits = k::seed_match(b, bases, index);
        const auto seeds = k::seed_enumerate(hits, b, index);
        return seeds.size() * sizeof(k::SeedMatch);
      },
      packed_chunks);

  // Extension operates per packed chunk, consuming that chunk's seeds.
  std::size_t chunk_cursor = 0;
  const auto m_extend = k::measure_stage(
      "extension",
      [&](std::span<const std::uint8_t> b) {
        const std::size_t i = chunk_cursor++ % packed_chunks.size();
        std::vector<k::SeedMatch> seeds(b.size() / sizeof(k::SeedMatch));
        std::memcpy(seeds.data(), b.data(),
                    seeds.size() * sizeof(k::SeedMatch));
        const auto survivors = k::small_extension(
            seeds, packed_chunks[i], kChunkBases, index);
        const auto alignments = k::ungapped_extension(
            survivors, packed_chunks[i], kChunkBases, index);
        return alignments.size() * sizeof(k::Alignment);
      },
      match_chunks);

  // The measured fa_2bit and seed rates depend on which scan backend ran
  // them; the extension stages have only the portable one.
  const char* scan_backend = k::uses_avx2() ? "AVX2" : "portable";
  util::Table t(
      {"Stage", "Average", "Minimum", "Maximum", "Volume out/in", "Kernel"},
      {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
       util::Align::kRight, util::Align::kRight, util::Align::kLeft});
  for (const auto* m : {&m_fa2bit, &m_seed, &m_extend}) {
    t.add_row({m->name, util::format_rate(m->rate_avg),
               util::format_rate(m->rate_min),
               util::format_rate(m->rate_max),
               util::format_significant(m->volume_ratio_avg, 3),
               m == &m_extend ? "portable" : scan_backend});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("(fa_2bit packs 4:1 -> volume 0.25; seed matching is the "
              "drastic filter the paper describes.)\n\n");

  // --- Assemble, model, simulate ------------------------------------------
  std::vector<netcalc::NodeSpec> pipeline;
  pipeline.push_back(
      m_fa2bit.to_node(netcalc::NodeKind::kCompute,
                       util::DataSize::bytes(m_fa2bit.block.in_bytes() / 4)));
  pipeline.push_back(m_seed.to_node(netcalc::NodeKind::kCompute,
                                    util::DataSize::kib(16)));
  pipeline.push_back(m_extend.to_node(netcalc::NodeKind::kCompute,
                                      util::DataSize::kib(4)));

  // Offer FASTA text at 80% of the measured end-to-end bottleneck.
  double bottleneck = 1e30;
  double vol = 1.0;
  for (const auto& n : pipeline) {
    bottleneck = std::min(bottleneck, n.rate_min().in_bytes_per_sec() / vol);
    vol *= n.volume.max;
  }
  netcalc::SourceSpec src;
  src.rate = util::DataRate::bytes_per_sec(0.8 * bottleneck);
  src.burst = util::DataSize::bytes(0);
  src.packet = m_fa2bit.block;

  diagnostics::preflight_pipeline("measured_blast", pipeline, src, {}, ctx);
  const netcalc::PipelineModel model(pipeline, src);
  certify::postflight_pipeline("measured_blast", model, ctx);
  const auto tb = model.throughput_bounds(util::Duration::millis(500));
  const auto q = queueing::analyze(pipeline, src);
  streamsim::SimConfig cfg;
  cfg.horizon = util::Duration::millis(500);
  cfg.warmup = util::Duration::millis(100);
  const auto sim = streamsim::simulate(pipeline, src, cfg);

  std::printf("offered %s | NC guaranteed %s .. ceiling %s | queueing %s | "
              "simulated %s\n",
              util::format_rate(src.rate).c_str(),
              util::format_rate(tb.lower).c_str(),
              util::format_rate(tb.upper).c_str(),
              util::format_rate(q.roofline_throughput).c_str(),
              util::format_rate(sim.throughput).c_str());
  std::printf("NC delay bound %s vs simulated [%s .. %s]; NC backlog bound "
              "%s vs simulated %s\n",
              util::format_duration(model.delay_bound().value).c_str(),
              util::format_duration(sim.min_delay).c_str(),
              util::format_duration(sim.max_delay).c_str(),
              util::format_size(model.backlog_bound().value).c_str(),
              util::format_size(sim.max_backlog).c_str());
  const bool delay_ok = sim.max_delay <= model.delay_bound().value;
  const bool backlog_ok = sim.max_backlog <= model.backlog_bound().value;
  std::printf("bracketing: delay %s, backlog %s\n",
              delay_ok ? "ok" : "VIOLATED", backlog_ok ? "ok" : "VIOLATED");

  // Sanity: the kernels really find the planted homologies.
  const auto alignments =
      k::blastn_pipeline(k::fa2bit(db), db.size(), index);
  std::printf("\nBLASTN found %zu alignments over the planted homologies\n",
              alignments.size());
  // The simulation must stay inside the NC worst-case bounds.
  return delay_ok && backlog_ok ? 0 : 1;
}

}  // namespace

// The run's configuration is the environment, parsed once here. Surface
// configuration errors (strict lint, bad STREAMCALC_* settings) as a
// one-line message and exit code 1 rather than std::terminate.
int main() {
  try {
    const auto ctx = streamcalc::util::Context::from_env();
    streamcalc::util::Context::install(ctx);
    return run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
