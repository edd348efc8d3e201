#include "kernels/arq_link.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace streamcalc::kernels {

namespace {

/// What a packet (or the sender) does when its event fires.
enum class Step {
  kSend,      ///< sender: spawn a packet per free window slot
  kAcquire,   ///< packet: take the wire, or queue for it
  kTransmit,  ///< packet: admitted to the wire; serialize
  kRelease,   ///< packet: serialized; free the wire, propagate
  kArrive,    ///< packet: propagated; delivered or lost
  kAck,       ///< packet: ack back; free its window slot
};

/// An event of the link, fired in (time, sequence) order: events at one
/// time fire in the order they were scheduled.
struct Event {
  double time;
  std::uint64_t seq;
  Step step;
  double created;  ///< the packet's first send (unused by the sender)

  bool operator>(const Event& o) const {
    return time > o.time || (time == o.time && seq > o.seq);
  }
};

/// One measurement run: a window of W slots and one wire, each admitting
/// its waiters in FIFO order. The sender fills the window at once and
/// waits; a packet queues for the wire, serializes, propagates, draws its
/// loss, and either returns an ack after one more propagation (freeing its
/// slot, which the waiting sender takes at once) or retransmits after the
/// timeout. Each step schedules the next in the order a coroutine DES of
/// the same processes would, so events at one time, and with them the loss
/// draws, come in the same order.
struct LinkRun {
  util::Xoshiro256 rng{1};
  double serialization = 0.0;
  double propagation = 0.0;
  double rto = 0.0;
  double loss = 0.0;
  double packet_bytes = 0.0;
  std::size_t window = 1;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> calendar;
  std::uint64_t next_seq = 0;
  std::size_t held = 0;          ///< window slots held
  bool sender_waiting = false;   ///< the sender waits for a slot
  bool sender_admitted = false;  ///< a slot freed for it; not yet resumed
  bool wire_busy = false;
  std::deque<double> wire_waiters;  ///< created times, in arrival order

  std::uint64_t delivered = 0;
  double latency_sum = 0.0;
  double latency_min = std::numeric_limits<double>::infinity();
  double latency_max = -std::numeric_limits<double>::infinity();
  std::uint64_t retransmissions = 0;
  std::vector<double> interval_bytes;
  double interval_len = 0.0;

  void schedule(double t, Step step, double created = 0.0) {
    calendar.push(Event{t, next_seq++, step, created});
  }

  void record_delivery(double now, double created) {
    const double latency = now - created;
    ++delivered;
    latency_sum += latency;
    latency_min = std::min(latency_min, latency);
    latency_max = std::max(latency_max, latency);
    const auto idx = static_cast<std::size_t>(now / interval_len);
    if (idx < interval_bytes.size()) interval_bytes[idx] += packet_bytes;
  }

  void fire(const Event& ev) {
    const double now = ev.time;
    switch (ev.step) {
      case Step::kSend:
        // The slot freed for it, then every free one: each a new packet.
        if (sender_admitted) {
          sender_admitted = false;
          schedule(now, Step::kAcquire, now);
        }
        for (; held < window; ++held) schedule(now, Step::kAcquire, now);
        sender_waiting = true;
        break;
      case Step::kAcquire:
        if (wire_busy) {
          wire_waiters.push_back(ev.created);
        } else {
          wire_busy = true;
          schedule(now + serialization, Step::kRelease, ev.created);
        }
        break;
      case Step::kTransmit:
        schedule(now + serialization, Step::kRelease, ev.created);
        break;
      case Step::kRelease:
        // The first waiter takes the wire over at once.
        if (wire_waiters.empty()) {
          wire_busy = false;
        } else {
          schedule(now, Step::kTransmit, wire_waiters.front());
          wire_waiters.pop_front();
        }
        schedule(now + propagation, Step::kArrive, ev.created);
        break;
      case Step::kArrive:
        if (rng.uniform01() >= loss) {
          record_delivery(now, ev.created);
          // Cumulative ack returns after one more propagation delay.
          schedule(now + propagation, Step::kAck, ev.created);
        } else {
          ++retransmissions;
          // The sender notices via timeout and retransmits.
          schedule(now + rto, Step::kAcquire, ev.created);
        }
        break;
      case Step::kAck:
        // The waiting sender takes the freed slot at once.
        if (sender_waiting) {
          sender_waiting = false;
          sender_admitted = true;
          schedule(now, Step::kSend);
        } else {
          --held;
        }
        break;
    }
  }

  /// Fires every event at or before `until`.
  void run_until(double until) {
    schedule(0.0, Step::kSend);
    while (!calendar.empty() && calendar.top().time <= until) {
      const Event ev = calendar.top();
      calendar.pop();
      fire(ev);
    }
  }
};

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
  run.window = params.window;
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

  run.run_until(params.measure_time.in_seconds());

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
