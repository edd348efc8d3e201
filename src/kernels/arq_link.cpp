#include "kernels/arq_link.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "des/simulation.hpp"
#include "des/store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::kernels {

namespace {

/// A held unit of the window or the wire. A token store of capacity n
/// admits n holders: put() acquires a unit, waiting in FIFO order while
/// all are held, and an immediately ready get() releases one.
struct Token {};
using Units = des::Store<Token>;

/// Shared state of one measurement run.
struct LinkRun {
  des::Simulation sim;
  Units* window = nullptr;
  Units* wire = nullptr;
  util::Xoshiro256 rng{1};
  double serialization = 0.0;
  double propagation = 0.0;
  double rto = 0.0;
  double loss = 0.0;
  double packet_bytes = 0.0;

  std::uint64_t delivered = 0;
  double latency_sum = 0.0;
  double latency_min = std::numeric_limits<double>::infinity();
  double latency_max = -std::numeric_limits<double>::infinity();
  std::uint64_t retransmissions = 0;
  std::vector<double> interval_bytes;
  double interval_len = 0.0;

  void record_delivery(double created) {
    const double latency = sim.now() - created;
    ++delivered;
    latency_sum += latency;
    latency_min = std::min(latency_min, latency);
    latency_max = std::max(latency_max, latency);
    const auto idx = static_cast<std::size_t>(sim.now() / interval_len);
    if (idx < interval_bytes.size()) interval_bytes[idx] += packet_bytes;
  }
};

des::Process packet_process(LinkRun& run, double created) {
  for (;;) {
    // Exclusive use of the wire for serialization.
    co_await run.wire->put(Token{});
    co_await run.sim.timeout(run.serialization);
    co_await run.wire->get();
    co_await run.sim.timeout(run.propagation);
    if (run.rng.uniform01() >= run.loss) {
      run.record_delivery(created);
      // Cumulative ack returns after one more propagation delay.
      co_await run.sim.timeout(run.propagation);
      co_await run.window->get();
      co_return;
    }
    ++run.retransmissions;
    // The sender notices via timeout and retransmits.
    co_await run.sim.timeout(run.rto);
  }
}

des::Process sender_process(LinkRun& run) {
  for (;;) {
    co_await run.window->put(Token{});
    run.sim.spawn(packet_process(run, run.sim.now()));
  }
}

}  // namespace

netcalc::NodeSpec ArqLinkMeasurement::to_node(std::string name,
                                              netcalc::NodeKind kind) const {
  netcalc::NodeSpec n;
  n.name = std::move(name);
  n.kind = kind;
  n.block_in = packet;
  n.block_out = packet;
  // Effective rates become per-packet times the models understand.
  n.time_min = packet / throughput_max;
  n.time_avg = packet / throughput_avg;
  n.time_max = packet / throughput_min;
  n.aggregates = false;  // cut-through
  // Packets overlap in flight; the pipeline-fill latency is the fastest
  // observed end-to-end delivery.
  n.latency_override = latency_min;
  n.validate();
  return n;
}

ArqLinkMeasurement measure_arq_link(const ArqLinkParams& params) {
  util::require(params.bandwidth > util::DataRate::bytes_per_sec(0),
                "measure_arq_link requires positive bandwidth");
  util::require(params.packet > util::DataSize::bytes(0),
                "measure_arq_link requires a positive packet size");
  util::require(params.window >= 1, "measure_arq_link requires window >= 1");
  util::require(params.loss_rate >= 0.0 && params.loss_rate < 1.0,
                "measure_arq_link requires loss in [0, 1)");
  util::require(params.measure_time > util::Duration::seconds(0) &&
                    params.measure_time.is_finite(),
                "measure_arq_link requires a positive measurement time");

  LinkRun run;
  run.rng = util::Xoshiro256(params.seed);
  run.serialization = (params.packet / params.bandwidth).in_seconds();
  run.propagation = params.propagation.in_seconds();
  run.loss = params.loss_rate;
  run.packet_bytes = params.packet.in_bytes();
  run.rto = params.retransmit_timeout > util::Duration::seconds(0)
                ? params.retransmit_timeout.in_seconds()
                : 2.0 * (2.0 * run.propagation + run.serialization);
  constexpr std::size_t kIntervals = 20;
  run.interval_len = params.measure_time.in_seconds() / kIntervals;
  run.interval_bytes.assign(kIntervals, 0.0);

  Units window(run.sim, params.window);
  Units wire(run.sim, 1);
  run.window = &window;
  run.wire = &wire;

  run.sim.spawn(sender_process(run));
  run.sim.run_until(params.measure_time.in_seconds());

  ArqLinkMeasurement m;
  m.packet = params.packet;
  m.packets_delivered = run.delivered;
  m.retransmissions = run.retransmissions;
  util::require(run.delivered > 0,
                "measure_arq_link: nothing delivered (measurement time too "
                "short for the configured RTT?)");
  m.latency_min = util::Duration::seconds(run.latency_min);
  m.latency_avg = util::Duration::seconds(
      run.latency_sum / static_cast<double>(run.delivered));
  m.latency_max = util::Duration::seconds(run.latency_max);
  m.throughput_avg = util::DataRate::bytes_per_sec(
      static_cast<double>(run.delivered) * run.packet_bytes /
      params.measure_time.in_seconds());
  // Interval spread, skipping the first interval (pipe-fill ramp).
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t i = 1; i < run.interval_bytes.size(); ++i) {
    const double rate = run.interval_bytes[i] / run.interval_len;
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  m.throughput_min = util::DataRate::bytes_per_sec(std::min(
      lo, m.throughput_avg.in_bytes_per_sec()));
  m.throughput_max = util::DataRate::bytes_per_sec(std::max(
      hi, m.throughput_avg.in_bytes_per_sec()));
  return m;
}

}  // namespace streamcalc::kernels
