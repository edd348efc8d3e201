// The paper's methodology end to end, on real kernels: measure each stage
// of a compression/encryption pipeline *in isolation* (Section 5: "we will
// test each stage in isolation and measure performance in isolation"),
// feed the measured min/avg/max rates and observed compression ratios into
// the network-calculus model, the queueing model and the simulator, and
// compare the three predictions.
//
// The stages are this repository's software kernels — lz4lite (the Vitis
// streaming-LZ4 stand-in) and AES-256-CBC — running on synthetic telemetry
// with data-dependent compressibility, plus a simulated reliable
// sliding-window network link (the FPGA TCP-stack stand-in) measured under
// light loss. Everything is measured live, so the absolute numbers vary
// run to run with the host CPU — which is the point: the models consume
// measurements, not constants.
#include <cstdio>

#include "kernels/aes.hpp"
#include "kernels/arq_link.hpp"
#include "kernels/lz4lite.hpp"
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

  std::printf("== Live-measured bump-in-the-wire pipeline ==\n\n");

  // Workload: 64 chunks of 64 KiB telemetry with mixed redundancy.
  util::Xoshiro256 rng(2024);
  std::vector<std::vector<std::uint8_t>> chunks;
  std::vector<std::vector<std::uint8_t>> compressed_chunks;
  for (int i = 0; i < 64; ++i) {
    chunks.push_back(
        k::telemetry_text(rng, 64 * 1024, rng.uniform(0.2, 0.95)));
    compressed_chunks.push_back(k::lz4lite_compress(chunks.back()));
  }

  const std::vector<std::uint8_t> key(32, 0x5A);
  const k::Aes aes(key);
  const k::AesBlock iv{};
  // CBC moves whole blocks: encrypt takes each compressed chunk zero-padded
  // to a 16-byte multiple, and decrypt takes the ciphertext that encrypt
  // produced, as in the running pipeline.
  std::vector<std::vector<std::uint8_t>> padded_chunks;
  std::vector<std::vector<std::uint8_t>> cipher_chunks;
  for (const auto& c : compressed_chunks) {
    auto& padded = padded_chunks.emplace_back(c);
    padded.resize((c.size() + 15) / 16 * 16, 0);
    cipher_chunks.push_back(aes.cbc_encrypt(padded, iv));
  }

  // Rates of a chain that corrupts data mean nothing: every chunk must
  // survive compress -> encrypt -> decrypt -> decompress byte for byte.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    auto plain = aes.cbc_decrypt(cipher_chunks[i], iv);
    plain.resize(compressed_chunks[i].size());
    if (k::lz4lite_decompress(plain) != chunks[i]) {
      std::fprintf(stderr,
                   "error: chunk %zu does not survive the BITW round trip\n",
                   i);
      return 1;
    }
  }

  // --- Isolated stage measurements --------------------------------------
  const auto m_compress = k::measure_stage(
      "compress",
      [](std::span<const std::uint8_t> b) {
        return k::lz4lite_compress(b).size();
      },
      chunks);
  const auto m_encrypt = k::measure_stage(
      "encrypt",
      [&](std::span<const std::uint8_t> b) {
        return aes.cbc_encrypt(b, iv).size();
      },
      padded_chunks);
  const auto m_decrypt = k::measure_stage(
      "decrypt",
      [&](std::span<const std::uint8_t> b) {
        return aes.cbc_decrypt(b, iv).size();
      },
      cipher_chunks);
  const auto m_decompress = k::measure_stage(
      "decompress",
      [](std::span<const std::uint8_t> b) {
        return k::lz4lite_decompress(b).size();
      },
      compressed_chunks);

  // The measured AES rates depend on which CBC backend ran them.
  const char* aes_backend = k::Aes::uses_aesni() ? "AES-NI" : "AES tables";
  util::Table t2(
      {"Function", "Average", "Minimum", "Maximum", "Block", "Kernel"},
      {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
       util::Align::kRight, util::Align::kRight, util::Align::kLeft});
  for (const auto* m : {&m_compress, &m_encrypt, &m_decrypt, &m_decompress}) {
    const bool is_aes = m == &m_encrypt || m == &m_decrypt;
    t2.add_row({m->name, util::format_rate(m->rate_avg),
                util::format_rate(m->rate_min),
                util::format_rate(m->rate_max), util::format_size(m->block),
                is_aes ? aes_backend : "lz4lite"});
  }
  std::fputs(t2.render().c_str(), stdout);
  std::printf("observed compression ratios: %.2fx avg, %.2fx min, %.2fx "
              "max\n\n",
              1.0 / m_compress.volume_ratio_avg,
              1.0 / m_compress.volume_ratio_max,
              1.0 / m_compress.volume_ratio_min);

  // --- Assemble the pipeline from the measurements -----------------------
  std::vector<netcalc::NodeSpec> pipeline;
  {
    netcalc::NodeSpec n = m_compress.to_node(netcalc::NodeKind::kCompute,
                                             64_KiB);
    n.aggregates = false;
    pipeline.push_back(n);
  }
  {
    netcalc::NodeSpec n =
        m_encrypt.to_node(netcalc::NodeKind::kCompute, m_encrypt.block);
    n.volume = netcalc::VolumeRatio::exact(1.0);
    n.aggregates = false;
    pipeline.push_back(n);
  }
  {
    // The network hop is itself measured: a simulated reliable
    // sliding-window link (the FPGA TCP-stack stand-in) under light loss.
    k::ArqLinkParams link;
    link.bandwidth = util::DataRate::gib_per_sec(10);
    link.propagation = 2_us;
    link.packet = 64_KiB;
    link.window = 32;
    link.loss_rate = 0.001;
    link.measure_time = 50_ms;
    const k::ArqLinkMeasurement ml = k::measure_arq_link(link);
    std::printf("measured network link: %s avg (%s .. %s), latency %s, "
                "%llu retransmissions\n\n",
                util::format_rate(ml.throughput_avg).c_str(),
                util::format_rate(ml.throughput_min).c_str(),
                util::format_rate(ml.throughput_max).c_str(),
                util::format_duration(ml.latency_min).c_str(),
                static_cast<unsigned long long>(ml.retransmissions));
    pipeline.push_back(
        ml.to_node("network", netcalc::NodeKind::kNetworkLink));
  }
  {
    netcalc::NodeSpec n =
        m_decrypt.to_node(netcalc::NodeKind::kCompute, m_decrypt.block);
    n.volume = netcalc::VolumeRatio::exact(1.0);
    n.aggregates = false;
    pipeline.push_back(n);
  }
  {
    netcalc::NodeSpec n = m_decompress.to_node(netcalc::NodeKind::kCompute,
                                               64_KiB);
    n.restores_volume = true;
    n.aggregates = false;
    pipeline.push_back(n);
  }

  // Offer data at 80% of the measured bottleneck (input-normalized).
  double bottleneck_norm = 1e30;
  double vol = 1.0;
  for (const auto& n : pipeline) {
    bottleneck_norm =
        std::min(bottleneck_norm, n.rate_min().in_bytes_per_sec() / vol);
    vol *= n.volume.max;
  }
  netcalc::SourceSpec source;
  source.rate = util::DataRate::bytes_per_sec(0.8 * bottleneck_norm);
  source.burst = util::DataSize::bytes(0);
  source.packet = 64_KiB;

  // --- Three models, one spec -------------------------------------------
  diagnostics::preflight_pipeline("measured_bitw", pipeline, source, {}, ctx);
  const netcalc::PipelineModel model(pipeline, source);
  certify::postflight_pipeline("measured_bitw", model, ctx);
  const auto tb = model.throughput_bounds(util::Duration::millis(100));
  const auto q = queueing::analyze(pipeline, source);
  streamsim::SimConfig cfg;
  cfg.horizon = util::Duration::millis(100);
  cfg.warmup = util::Duration::millis(20);
  const auto sim = streamsim::simulate(pipeline, source, cfg);

  util::Table t3({"Model", "Prediction"},
                 {util::Align::kLeft, util::Align::kRight});
  t3.add_row({"offered load", util::format_rate(source.rate)});
  t3.add_row({"NC guaranteed (worst case)", util::format_rate(tb.lower)});
  t3.add_row({"NC ceiling (best case)", util::format_rate(tb.upper)});
  t3.add_row(
      {"queueing roofline", util::format_rate(q.roofline_throughput)});
  t3.add_row({"simulated delivery", util::format_rate(sim.throughput)});
  std::fputs(t3.render().c_str(), stdout);
  std::printf("\nNC delay bound %s vs simulated delays [%s .. %s]\n",
              util::format_duration(model.delay_bound().value).c_str(),
              util::format_duration(sim.min_delay).c_str(),
              util::format_duration(sim.max_delay).c_str());
  std::printf("NC backlog bound %s vs simulated peak %s\n",
              util::format_size(model.backlog_bound().value).c_str(),
              util::format_size(sim.max_backlog).c_str());
  const bool delay_ok = sim.max_delay <= model.delay_bound().value;
  const bool backlog_ok = sim.max_backlog <= model.backlog_bound().value;
  std::printf("\nbracketing: delay %s, backlog %s, throughput %s\n",
              delay_ok ? "ok" : "VIOLATED", backlog_ok ? "ok" : "VIOLATED",
              (sim.throughput <= tb.upper &&
               sim.throughput.in_bytes_per_sec() >=
                   0.95 * tb.lower.in_bytes_per_sec())
                  ? "ok"
                  : "VIOLATED");
  // The simulation must stay inside the NC worst-case bounds; the
  // throughput line is a heuristic (5% slack on a short horizon) and only
  // reported.
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
