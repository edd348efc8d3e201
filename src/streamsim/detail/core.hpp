// The parts of a simulation run: the Network built from a DagSpec, the
// source's schedule, each node's JobStep and the Recorder of the
// statistics. The max-plus recurrence (recurrence.cpp) runs on them, and
// so does the coroutine DES the tests keep as its oracle
// (tests/support/des/pipeline.cpp); the recurrence calls the Recorder in
// the order the DES does, so the two produce bit-identical SimResults.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "netcalc/dag.hpp"
#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "streamsim/pipeline_sim.hpp"
#include "util/rng.hpp"

namespace streamcalc::streamsim::detail {

/// A unit of data in flight. `raw_bytes` is its size at the current hop;
/// `input_bytes` its input-normalized equivalent (conserved through volume
/// changes so throughput and backlog stay comparable to the NC curves);
/// `created_at` the simulated time its earliest constituent entered the
/// pipeline.
struct Packet {
  double raw_bytes;
  double input_bytes;
  double created_at;
};

/// Thinning recorder for (time, value) traces: once full, every other
/// sample is dropped. A cap of 0 records nothing; a cap of 1 keeps the
/// first sample.
class Trace {
 public:
  explicit Trace(std::size_t max_samples) : max_samples_(max_samples) {}

  void record(double t, double v) {
    if (max_samples_ == 0) return;
    if (samples_.size() >= max_samples_) [[unlikely]] thin();
    if (samples_.size() < max_samples_) samples_.emplace_back(t, v);
  }

  std::vector<std::pair<double, double>> take() { return std::move(samples_); }

 private:
  void thin() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2) {
      samples_[kept++] = samples_[i];
    }
    samples_.resize(kept);
  }

  std::size_t max_samples_;
  std::vector<std::pair<double, double>> samples_;
};

/// Where a node's (or the source's) packets go: a queue index, the sink
/// (index nodes.size()) or kDropped, with a long-run share `weight`.
struct Destination {
  std::size_t queue;
  double weight;
};
inline constexpr std::size_t kDropped = SIZE_MAX;

/// Deterministic weighted round-robin over a set of destinations: each
/// send picks the destination with the largest deficit (weight * total -
/// sent), so long-run shares converge to the weights exactly.
class WeightedRouter {
 public:
  explicit WeightedRouter(std::vector<Destination> dests)
      : dests_(std::move(dests)),
        sent_(dests_.size(), 0.0),
        sole_(dests_.size() == 1 && dests_.front().weight == 1.0) {}

  /// Destination queue for the next packet (kDropped if it leaves).
  std::size_t route() {
    std::size_t to;
    route(std::span(&to, 1));
    return to;
  }

  /// Destination queues for the next out.size() packets, in order: the
  /// decisions of as many route() calls.
  void route(std::span<std::size_t> out) {
    // A sole destination of weight 1 is always a deficit of 1 ahead.
    if (sole_) {
      std::fill(out.begin(), out.end(), dests_.front().queue);
      return;
    }
    if (dests_.size() == 2) {
      route_pair(out);
      return;
    }
    const Destination* dests = dests_.data();
    const std::size_t n = dests_.size();
    double* sent = sent_.data();
    double total = total_;
    for (std::size_t& to : out) {
      total += 1.0;
      std::size_t best = 0;
      double best_deficit = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double deficit = dests[i].weight * total - sent[i];
        if (deficit > best_deficit) {
          best_deficit = deficit;
          best = i;
        }
      }
      if (best_deficit <= 0.0) {
        to = kDropped;  // only the remainder is due
      } else {
        sent[best] += 1.0;
        to = dests[best].queue;
      }
    }
    total_ = total;
  }

 private:
  /// route(out) for two destinations (a two-way split, or one edge and the
  /// remainder that leaves), the same arithmetic with both counts held in
  /// registers and the winner selected, not branched on: each decision
  /// waits on the count the last one raised, and the generic loop sends
  /// that count through memory. A fork_join simulation (micro_des
  /// BM_ForkJoinSim) and perfbench analyze's p95 latency, which sits on
  /// fork_join, both run about 7% slower on the generic loop (4-core x86
  /// VM, alternating pairs).
  void route_pair(std::span<std::size_t> out) {
    const double w0 = dests_[0].weight;
    const double w1 = dests_[1].weight;
    const std::size_t q0 = dests_[0].queue;
    const std::size_t q1 = dests_[1].queue;
    double s0 = sent_[0];
    double s1 = sent_[1];
    double total = total_;
    for (std::size_t& to : out) {
      total += 1.0;
      const double d0 = w0 * total - s0;
      const double d1 = w1 * total - s1;
      const bool second = d1 > d0;
      const bool due = (second ? d1 : d0) > 0.0;
      s0 += due && !second ? 1.0 : 0.0;
      s1 += due && second ? 1.0 : 0.0;
      to = !due ? kDropped : second ? q1 : q0;
    }
    sent_[0] = s0;
    sent_[1] = s1;
    total_ = total;
  }

  std::vector<Destination> dests_;
  std::vector<double> sent_;
  bool sole_;
  double total_ = 0.0;  ///< packets routed; exact below 2^53
};

/// The topology a run walks, built from a DagSpec; queue
/// nodes->size() is the sink. A chain arrives as its one-path DAG
/// (DagSpec::chain): node i feeds node i + 1, the last node feeds the sink,
/// nothing is dropped and the order is 0 .. n - 1.
struct Network {
  const std::vector<netcalc::NodeSpec>* nodes = nullptr;
  std::vector<std::vector<Destination>> outputs;  ///< per node
  std::vector<Destination> entries;               ///< source routing
  std::vector<std::size_t> order;                 ///< topological order

  /// Node that sizes the source's packets when the source sets none.
  std::size_t first_entry() const { return entries.front().queue; }
};

/// Validates the DAG, the run (horizon, warmup, source rate, a queue
/// capacity of at least 1, and of a chain when finite) and the on/off and
/// rate-profile fields where set, then builds `dag`'s network.
/// The network points into `dag`, which must outlive it.
Network network(const netcalc::DagSpec& dag,
                const netcalc::SourceSpec& source, const SimConfig& config);

/// On/off users (SimConfig::onoff_users), which replace the constant-rate
/// source, with their releases merged by time. Each user starts off and
/// alternates Exp(mean_off) silences with Exp(mean_on) on-periods, drawn
/// from its own stream; while on, it releases one whole packet per
/// `packet / peak` window, and it discards the partial window when it
/// turns off. A user's clock advances as t + dt, the DES's now + dt, so
/// each release falls on the instant a DES timeout chain would give it.
/// Users releasing at one instant release identical packets, so their
/// order there cannot change a SimResult.
class OnOffUsers {
 public:
  /// User u draws from root.split(1000 + u), split in user order; the
  /// 1000 base keeps them clear of the node streams (split(i + 1)).
  OnOffUsers(const SimConfig& config, double packet_bytes,
             util::Xoshiro256& root);

  /// The next release time, in time order. Past the horizon it returns
  /// some time after it.
  double next();

 private:
  struct User {
    util::Xoshiro256 rng;
    double t = 0.0;        ///< the user's clock
    double on_left = 0.0;  ///< on-time left from t
  };
  using Release = std::pair<double, std::size_t>;  ///< (time, user)

  /// Advances `u` to its next release and returns its time.
  double release(User& u) const;

  double horizon_;
  double window_;
  double mean_on_;
  double mean_off_;
  std::vector<User> users_;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> due_;
};

/// The source's packet size and release schedule: a burst of whole
/// packets at time 0, then one packet per gap at the rate in effect (the
/// constant SourceSpec rate, or SimConfig::rate_profile); or, when
/// SimConfig::onoff_users is set, the on/off users' releases instead.
class SourceSchedule {
 public:
  SourceSchedule(const Network& net, const netcalc::SourceSpec& source,
                 const SimConfig& config);

  double packet_bytes() const { return packet_bytes_; }
  std::size_t burst_packets() const { return burst_packets_; }
  /// Rate (bytes/s) in effect at time t.
  double rate_at(double t) const;
  /// Highest rate (bytes/s) the source ever releases at.
  double peak_rate() const;
  /// First rate change strictly after t; +inf if none.
  double next_change(double t) const;
  /// The constant-rate or profile source's next emit after `clock`: it
  /// sleeps through idle profile phases to the next change, then waits one
  /// gap at the rate in effect. +inf once that emit or the end of an idle
  /// phase lies past the horizon, or the source stays idle for good.
  double next_emit(double clock, util::Xoshiro256& root) const {
    const double horizon = config_->horizon.in_seconds();
    double rate = rate_at(clock);
    while (rate <= 0.0) {
      // Idle phase: sleep through to the next profile change.
      const double next = next_change(clock);
      if (!std::isfinite(next) || clock + (next - clock) > horizon) {
        return std::numeric_limits<double>::infinity();
      }
      clock = clock + (next - clock);
      rate = rate_at(clock);
    }
    const double at = clock + gap(rate, root);
    return at > horizon ? std::numeric_limits<double>::infinity() : at;
  }
  /// Gap before the next packet at `rate` (> 0): the mean gap, or an
  /// exponential draw from the root stream for Poisson arrivals.
  double gap(double rate, util::Xoshiro256& root) const {
    const double mean_gap = packet_bytes_ / rate;
    return poisson_ ? root.exponential(mean_gap) : mean_gap;
  }
  /// True when on/off users replace the constant-rate source.
  bool onoff() const { return config_->onoff_users > 0; }
  /// The on/off users, their streams split off `root` (after the nodes').
  OnOffUsers users(util::Xoshiro256& root) const {
    return OnOffUsers(*config_, packet_bytes_, root);
  }

 private:
  const SimConfig* config_;
  double packet_bytes_;
  std::size_t burst_packets_ = 0;
  double constant_rate_;
  bool poisson_;
  const std::vector<std::pair<double, double>>* profile_;
};

/// One job of a node: its size, its oldest constituent's creation time and
/// its execution time.
struct Job {
  double raw;
  double input;
  double created;
  double exec;
};

/// A finished job's output: `count` identical packets.
struct JobOutput {
  std::size_t count;
  Packet packet;
};

/// Samples from [lo, hi] with mean exactly `mid`: a two-piece uniform
/// mixture over [lo, mid] and [mid, hi], its weight and spans computed
/// once so a node's per-job draws skip the division. Requires
/// lo <= mid <= hi.
class RangeSampler {
 public:
  RangeSampler(double lo, double mid, double hi);

  double draw(util::Xoshiro256& rng) const {
    if (fixed_) return mid_;
    if (rng.uniform01() < p_low_) return lo_ + low_span_ * rng.uniform01();
    return mid_ + high_span_ * rng.uniform01();
  }

 private:
  double lo_;
  double mid_;
  bool fixed_;
  double p_low_ = 0.0;
  double low_span_;
  double high_span_;
};

/// One node's job step. Delivered packets collect
/// as pending bytes until they make a job (a full block when the node
/// aggregates, else any data); start() forms the job and draws its
/// execution time, finish() draws its output volume and splits it into
/// block_out-sized packets. Draws come from the node's own stream, in job
/// order.
class JobStep {
 public:
  JobStep(const netcalc::NodeSpec& node, const SimConfig& config,
          util::Xoshiro256 rng);

  bool needs_input() const {
    return pending_raw_ < threshold_ || pending_raw_ <= 0.0;
  }

  void add(const Packet& p) {
    pending_raw_ += p.raw_bytes;
    pending_input_ += p.input_bytes;
    pending_created_ = std::min(pending_created_, p.created_at);
    last_created_ = p.created_at;
  }

  /// Forms the next job. The node consumes exactly block_in per job when
  /// it aggregates; surplus bytes (block misalignment with upstream packet
  /// sizes) stay pending for the next job. The execution time is random in
  /// [min, max] with mean exactly time_avg, scaled for jobs that differ
  /// from the nominal block (links serving variable packets).
  Job start() {
    Job job;
    job.created = pending_created_;
    if (aggregates_ && pending_raw_ > block_in_) {
      job.raw = block_in_;
      job.input = pending_input_ * (block_in_ / pending_raw_);
      pending_raw_ -= job.raw;
      pending_input_ -= job.input;
      // The surplus came from the most recent packet.
      pending_created_ = last_created_;
    } else {
      job.raw = pending_raw_;
      job.input = pending_input_;
      pending_raw_ = 0.0;
      pending_input_ = 0.0;
      pending_created_ = std::numeric_limits<double>::infinity();
    }
    double nominal;
    switch (exec_draw_) {
      case Draw::kFixed:
        nominal = t_avg_;
        break;
      case Draw::kExponential:
        nominal = rng_.exponential(t_avg_);
        break;
      case Draw::kRange:
      default:
        nominal = exec_.draw(rng_);
        break;
    }
    // A full block scales by exactly 1.
    job.exec = job.raw == block_in_ ? nominal : nominal * (job.raw / block_in_);
    return job;
  }

  /// Output of a finished job: total volume after the node's volume ratio,
  /// split into block_out-sized packets. A restoring stage (decompressor)
  /// emits the data's original volume so compression stays correlated end
  /// to end.
  JobOutput finish(const Job& job) {
    double total_out;
    if (restores_volume_) {
      total_out = job.input;
    } else {
      const double ratio =
          ratio_draw_ == Draw::kRange ? ratio_.draw(rng_) : fixed_ratio_;
      total_out = job.raw * ratio;
    }
    // max(1, floor(y)) packets; y >= 0.5, so truncation is the floor.
    const double y = total_out / block_out_ + 0.5;
    if (!(y >= 2.0)) return {1, Packet{total_out, job.input, job.created}};
    const auto n_packets = static_cast<std::size_t>(y);
    const double n = static_cast<double>(n_packets);
    return {n_packets, Packet{total_out / n, job.input / n, job.created}};
  }

 private:
  enum class Draw { kFixed, kExponential, kRange };

  util::Xoshiro256 rng_;
  double block_in_;
  double block_out_;
  double t_avg_;
  double threshold_;
  bool aggregates_;
  bool restores_volume_;
  Draw exec_draw_;
  RangeSampler exec_;
  Draw ratio_draw_;
  RangeSampler ratio_;
  double fixed_ratio_;
  // Bytes delivered but not yet dispatched.
  double pending_raw_ = 0.0;
  double pending_input_ = 0.0;
  double pending_created_ = std::numeric_limits<double>::infinity();
  double last_created_ = 0.0;
};

/// Per-node job steps, each on its own stream split off `root`. The root
/// stream continues with the source's draws.
std::vector<JobStep> job_steps(const Network& net, const SimConfig& config,
                               util::Xoshiro256& root);

/// A packet and the time it reaches a queue (or leaves the system).
struct Arrival {
  double time;
  Packet packet;
};

/// Whole-run statistics, fed one event at a time in event order:
/// source emits into the system, split drops out of it, and sink
/// deliveries.
class Recorder {
 public:
  explicit Recorder(const SimConfig& config);

  void emit(double t, double bytes) { add_backlog<true>(totals_, t, bytes); }
  void drop(double t, double input_bytes) {
    add_backlog<true>(totals_, t, -input_bytes);
  }
  void deliver(double t, const Packet& p) { add_delivery<true>(totals_, t, p); }

  /// Records the time-sorted `deliveries`, each after the source emits
  /// (`bytes` each) from the front of the time-sorted `emits` at or before
  /// its time, and returns how many emits it recorded: what emit() and
  /// deliver() record when called in that order, with the running totals
  /// held in locals.
  std::size_t deliver(std::span<const double> emits, double bytes,
                      std::span<const Arrival> deliveries);
  /// Records source emits of `bytes` each, as emit() does.
  void emit(std::span<const double> emits, double bytes);

  /// The result, with per-node busy time and job counts.
  SimResult result(const Network& net, const std::vector<double>& busy,
                   const std::vector<std::uint64_t>& jobs);

 private:
  /// The running totals, apart from the traces.
  struct Totals {
    double backlog = 0.0;
    double max_backlog = 0.0;
    double delivered_input_bytes = 0.0;
    double measured_input_bytes = 0.0;
    std::uint64_t packets_delivered = 0;
    /// Post-warmup delays: count, sum, minimum and maximum.
    std::uint64_t delays = 0;
    double delay_sum = 0.0;
    double min_delay = std::numeric_limits<double>::infinity();
    double max_delay = -std::numeric_limits<double>::infinity();
  };

  /// One delivery into `s`; kTraced = false skips the traces.
  template <bool kTraced>
  void add_delivery(Totals& s, double t, const Packet& p) {
    s.delivered_input_bytes += p.input_bytes;
    ++s.packets_delivered;
    if (t >= warmup_) {
      s.measured_input_bytes += p.input_bytes;
      const double delay = t - p.created_at;
      ++s.delays;
      s.delay_sum += delay;
      s.min_delay = std::min(s.min_delay, delay);
      s.max_delay = std::max(s.max_delay, delay);
    }
    if (kTraced) delay_trace_.record(t, t - p.created_at);
    add_backlog<kTraced>(s, t, -p.input_bytes);
    if (kTraced) output_trace_.record(t, s.delivered_input_bytes);
  }

  template <bool kTraced>
  void add_backlog(Totals& s, double t, double delta) {
    s.backlog += delta;
    if (t >= warmup_) s.max_backlog = std::max(s.max_backlog, s.backlog);
    if (kTraced) backlog_trace_.record(t, s.backlog);
  }

  /// deliver(), and with `every_emit` also the emits after the last
  /// delivery; kTraced = false skips the traces.
  template <bool kTraced>
  std::size_t merge(std::span<const double> emits, double bytes,
                    std::span<const Arrival> deliveries, bool every_emit);

  double horizon_;
  double warmup_;
  bool traced_;
  Totals totals_;
  Trace output_trace_;
  Trace backlog_trace_;
  Trace delay_trace_;
};

}  // namespace streamcalc::streamsim::detail
