#include "streamsim/detail/core.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/format.hpp"

namespace streamcalc::streamsim::detail {

namespace {

using netcalc::NodeSpec;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;

/// Most source packets one run may emit. A run's time grows with its
/// packets, and a join whose branch stays silent holds every packet of the
/// other branches until the run ends, so a horizon and rate past this (a
/// 1e30 GiB/s typo in a spec) are refused up front instead of running for
/// hours or exhausting memory. The paper programs emit at most ~10k packets
/// per run and the tests ~60k.
constexpr double kMaxSourcePackets = 1e7;

/// Most on/off cycles (a silence and an on-period) one run may expect,
/// users x horizon / (mean_on + mean_off). A user cycles until the horizon
/// even when no on-period lasts a window and it releases nothing, at about
/// 30 ns a cycle, so nanosecond sojourns over a 100 s horizon are refused
/// up front instead of spinning for half an hour. The on/off tests expect
/// at most ~330 cycles per run.
constexpr double kMaxOnOffCycles = 1e7;

}  // namespace

Network network(const netcalc::DagSpec& dag, const SourceSpec& source,
                const SimConfig& config) {
  std::vector<std::size_t> order = dag.validate();
  util::require(config.horizon > Duration::seconds(0) &&
                    config.horizon.is_finite(),
                "simulate requires a positive finite horizon");
  util::require(source.rate > DataRate::bytes_per_sec(0),
                "simulate requires a positive source rate");
  const double h = config.horizon.in_seconds();
  const double w = config.warmup.in_seconds();
  util::require(w >= 0.0 && w < h, "warmup must lie within the horizon");
  util::require(config.queue_capacity >= 1,
                "queue_capacity must be at least 1");
  if (config.onoff_users > 0) {
    util::require(config.queue_capacity == SimConfig::kUnlimitedQueue,
                  "on/off sources require unlimited queues");
    util::require(config.onoff_peak > DataRate::bytes_per_sec(0),
                  "on/off sources require a positive peak rate");
    util::require(config.onoff_mean_on > Duration::seconds(0) &&
                      config.onoff_mean_off > Duration::seconds(0),
                  "on/off sources require positive mean sojourns");
  }
  const auto& profile = config.rate_profile;
  if (!profile.empty()) {
    util::require(profile.front().first == 0.0,
                  "rate_profile must start at time 0");
    for (std::size_t i = 0; i < profile.size(); ++i) {
      util::require(profile[i].second >= 0.0,
                    "rate_profile rates must be non-negative");
      util::require(i == 0 || profile[i].first > profile[i - 1].first,
                    "rate_profile times must be strictly increasing");
    }
  }

  Network net;
  net.nodes = &dag.nodes;
  const std::size_t n = dag.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Destination> dests;
    double covered = 0.0;
    for (const netcalc::DagEdge& e : dag.edges) {
      if (e.from == i) {
        dests.push_back({e.to, e.fraction});
        covered += e.fraction;
      }
    }
    if (dests.empty()) {
      dests.push_back({n, 1.0});  // sink
    } else if (covered < 1.0 - 1e-9) {
      dests.push_back({kDropped, 1.0 - covered});
    }
    net.outputs.push_back(std::move(dests));
  }
  double covered = 0.0;
  for (const netcalc::DagEdge& e : dag.entries) {
    net.entries.push_back({e.to, e.fraction});
    covered += e.fraction;
  }
  if (covered < 1.0 - 1e-9) {
    net.entries.push_back({kDropped, 1.0 - covered});
  }
  net.order = std::move(order);
  if (config.queue_capacity != SimConfig::kUnlimitedQueue) {
    // Bounded queues run the tandem recursion, which walks one path: the
    // source's whole output into the first node, each node's into the next
    // in order, the last node's into the sink.
    const auto feeds = [](const std::vector<Destination>& dests,
                          std::size_t to) {
      return dests.size() == 1 && dests.front().queue == to &&
             dests.front().weight == 1.0;
    };
    bool chain = feeds(net.entries, net.order.front());
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t next = p + 1 < n ? net.order[p + 1] : n;
      chain = chain && feeds(net.outputs[net.order[p]], next);
    }
    util::require(chain,
                  "a finite queue_capacity applies to chains only: this DAG "
                  "has a split, a join or a dropped share");
  }
  return net;
}

SourceSchedule::SourceSchedule(const Network& net, const SourceSpec& source,
                               const SimConfig& config)
    : config_(&config),
      packet_bytes_(source.packet > DataSize::bytes(0)
                        ? source.packet.in_bytes()
                        : (*net.nodes)[net.first_entry()].block_in.in_bytes()),
      constant_rate_(source.rate.in_bytes_per_sec()),
      poisson_(config.poisson_arrivals && !config.deterministic),
      profile_(&config.rate_profile) {
  const double packets =
      (source.burst.in_bytes() + config.horizon.in_seconds() * peak_rate()) /
      packet_bytes_;
  if (!(packets <= kMaxSourcePackets)) {
    // The message is built only here: every simulation passes this check.
    throw util::PreconditionError(
        "simulation would emit " + util::format_significant(packets) +
        " source packets, more than the " +
        util::format_significant(kMaxSourcePackets) +
        " one run holds: shorten the horizon or lower the source rate");
  }
  if (onoff()) {
    const double cycles =
        static_cast<double>(config.onoff_users) * config.horizon.in_seconds() /
        (config.onoff_mean_on + config.onoff_mean_off).in_seconds();
    if (!(cycles <= kMaxOnOffCycles)) {
      throw util::PreconditionError(
          "simulation would run " + util::format_significant(cycles) +
          " on/off cycles, more than the " +
          util::format_significant(kMaxOnOffCycles) +
          " one run allows: shorten the horizon or lengthen the on/off "
          "sojourns");
    }
  }
  // Initial burst: the arrival curve's instantaneous component.
  double burst_left = source.burst.in_bytes();
  while (burst_left >= packet_bytes_) {
    burst_left -= packet_bytes_;
    ++burst_packets_;
  }
}

double SourceSchedule::peak_rate() const {
  if (onoff()) {
    return static_cast<double>(config_->onoff_users) *
           config_->onoff_peak.in_bytes_per_sec();
  }
  if (profile_->empty()) return constant_rate_;
  double peak = 0.0;
  for (const auto& [start, r] : *profile_) peak = std::max(peak, r);
  return peak;
}

double SourceSchedule::rate_at(double t) const {
  if (profile_->empty()) return constant_rate_;
  double rate = profile_->front().second;
  for (const auto& [start, r] : *profile_) {
    if (start <= t) rate = r;
  }
  return rate;
}

double SourceSchedule::next_change(double t) const {
  for (const auto& [start, r] : *profile_) {
    if (start > t) return start;
  }
  return std::numeric_limits<double>::infinity();
}

OnOffUsers::OnOffUsers(const SimConfig& config, double packet_bytes,
                       util::Xoshiro256& root)
    : horizon_(config.horizon.in_seconds()),
      window_(packet_bytes / config.onoff_peak.in_bytes_per_sec()),
      mean_on_(config.onoff_mean_on.in_seconds()),
      mean_off_(config.onoff_mean_off.in_seconds()) {
  users_.reserve(config.onoff_users);
  for (std::size_t u = 0; u < config.onoff_users; ++u) {
    users_.push_back(User{root.split(1000 + u)});
    due_.emplace(release(users_.back()), u);
  }
}

double OnOffUsers::next() {
  const auto [t, u] = due_.top();
  due_.pop();
  due_.emplace(release(users_[u]), u);
  return t;
}

double OnOffUsers::release(User& u) const {
  while (u.on_left < window_) {
    // An on-period too short for another packet (at the start, the empty
    // one before the first silence): its rest passes, then a silence.
    if (u.t > horizon_) return u.t;
    u.t = u.t + u.on_left;
    u.t = u.t + u.rng.exponential(mean_off_);
    u.on_left = u.rng.exponential(mean_on_);
  }
  u.t = u.t + window_;
  u.on_left -= window_;
  return u.t;
}

RangeSampler::RangeSampler(double lo, double mid, double hi)
    : lo_(lo),
      mid_(mid),
      fixed_(hi == lo),
      low_span_(mid - lo),
      high_span_(hi - mid) {
  if (fixed_) return;
  util::require(lo <= mid && mid <= hi,
                "RangeSampler requires lo <= mid <= hi");
  p_low_ = (hi - mid) / (hi - lo);
}

JobStep::JobStep(const NodeSpec& node, const SimConfig& config,
                 util::Xoshiro256 rng)
    : rng_(rng),
      block_in_(node.block_in.in_bytes()),
      block_out_(node.block_out.in_bytes()),
      t_avg_(node.effective_time_avg().in_seconds()),
      threshold_(node.aggregates ? block_in_ : 0.0),
      aggregates_(node.aggregates),
      restores_volume_(node.restores_volume),
      exec_draw_(config.deterministic ? Draw::kFixed
                 : config.service_distribution == TimeDistribution::kExponential
                     ? Draw::kExponential
                     : Draw::kRange),
      exec_(node.time_min.in_seconds(), t_avg_, node.time_max.in_seconds()),
      ratio_draw_(Draw::kFixed),
      ratio_(node.volume.min, node.volume.avg, node.volume.max),
      fixed_ratio_(node.volume.avg) {
  switch (config.volume_mode) {
    case VolumeMode::kWorstCase:
      fixed_ratio_ = node.volume.max;
      break;
    case VolumeMode::kBestCase:
      fixed_ratio_ = node.volume.min;
      break;
    case VolumeMode::kAverage:
      break;
    case VolumeMode::kSampled:
    default:
      if (!config.deterministic) ratio_draw_ = Draw::kRange;
      break;
  }
}

std::vector<JobStep> job_steps(const Network& net, const SimConfig& config,
                               util::Xoshiro256& root) {
  std::vector<JobStep> steps;
  steps.reserve(net.nodes->size());
  for (std::size_t i = 0; i < net.nodes->size(); ++i) {
    steps.emplace_back((*net.nodes)[i], config, root.split(i + 1));
  }
  return steps;
}

Recorder::Recorder(const SimConfig& config)
    : horizon_(config.horizon.in_seconds()),
      warmup_(config.warmup.in_seconds()),
      traced_(config.max_trace_samples > 0),
      output_trace_(config.max_trace_samples),
      backlog_trace_(config.max_trace_samples),
      delay_trace_(config.max_trace_samples) {}

std::size_t Recorder::deliver(std::span<const double> emits, double bytes,
                              std::span<const Arrival> deliveries) {
  return traced_ ? merge<true>(emits, bytes, deliveries, false)
                 : merge<false>(emits, bytes, deliveries, false);
}

void Recorder::emit(std::span<const double> emits, double bytes) {
  if (traced_) {
    merge<true>(emits, bytes, {}, true);
  } else {
    merge<false>(emits, bytes, {}, true);
  }
}

template <bool kTraced>
std::size_t Recorder::merge(std::span<const double> emits, double bytes,
                            std::span<const Arrival> deliveries,
                            bool every_emit) {
  Totals s = totals_;
  std::size_t e = 0;
  for (const Arrival& a : deliveries) {
    for (; e < emits.size() && emits[e] <= a.time; ++e) {
      add_backlog<kTraced>(s, emits[e], bytes);
    }
    add_delivery<kTraced>(s, a.time, a.packet);
  }
  if (every_emit) {
    for (; e < emits.size(); ++e) add_backlog<kTraced>(s, emits[e], bytes);
  }
  totals_ = s;
  return e;
}

SimResult Recorder::result(const Network& net, const std::vector<double>& busy,
                           const std::vector<std::uint64_t>& jobs) {
  SimResult r;
  r.throughput = DataRate::bytes_per_sec(totals_.measured_input_bytes /
                                         (horizon_ - warmup_));
  if (totals_.delays > 0) {
    r.min_delay = Duration::seconds(totals_.min_delay);
    r.max_delay = Duration::seconds(totals_.max_delay);
    r.mean_delay = Duration::seconds(totals_.delay_sum /
                                     static_cast<double>(totals_.delays));
  }
  r.max_backlog = DataSize::bytes(std::max(0.0, totals_.max_backlog));
  r.packets_delivered = totals_.packets_delivered;
  r.output_trace = output_trace_.take();
  r.backlog_trace = backlog_trace_.take();
  r.delay_trace = delay_trace_.take();
  r.node_stats.reserve(busy.size());
  for (std::size_t i = 0; i < busy.size(); ++i) {
    r.node_stats.push_back(
        NodeStats{(*net.nodes)[i].name, busy[i] / horizon_, jobs[i]});
  }
  return r;
}

}  // namespace streamcalc::streamsim::detail
