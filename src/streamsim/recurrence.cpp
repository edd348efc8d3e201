// The max-plus (Lindley) recurrence engine: the DES's answer for unlimited
// queues without an event calendar.
//
// With unlimited queues a node never blocks its upstream, so each node's
// schedule depends only on its own input sequence. Each source packet is
// pushed through every node that has a single producer as soon as it is
// emitted (a chain is a one-path DAG); a join runs, in topological order,
// once its producers are done, over their streams merged by time. A job
// starts at max(arrival of the packet that completes it, previous finish)
// and finishes at start + exec; a job that would finish after the horizon
// emits nothing and adds no busy time, the DES's `time <= horizon` rule.
// Draws come from the same per-node streams in job order, and source gaps
// from the root stream after the node splits, so every time and size
// matches the DES bit for bit.
//
// What the recurrence does not track is the DES's sequence order among
// events at one instant. Where that order is observable it follows a
// fixed rule or gives up:
//   * A source emit and a sink delivery at one time: the emit comes first,
//     since its timeout was scheduled before that time and the sink's
//     resume is scheduled at it.
//   * Any other meeting of two streams at one instant — two producers
//     feeding one queue (a join, or the sink), a split drop beside an emit,
//     a delivery or another node's drop, or a source whose clock did not
//     advance — returns nullopt, and the caller runs the DES instead.
#include <algorithm>
#include <cmath>
#include <optional>

#include "streamsim/detail/core.hpp"
#include "streamsim/detail/engines.hpp"
#include "util/error.hpp"

namespace streamcalc::streamsim::detail {

namespace {

using netcalc::SourceSpec;

/// A packet and the time it reaches a queue (or leaves the system).
struct Arrival {
  double time;
  Packet packet;
};

/// Where a routed packet goes. A node with a single producer is fed
/// directly, so packets stream through chains without buffers. Packets
/// for a node with several producers (a join), for the sink and out of a
/// lossy split are kept in one time-sorted stream per producer and merged
/// later.
struct Target {
  enum class Kind { kNode, kStream };
  Kind kind;
  std::size_t index;  ///< node index for kNode, stream index for kStream
};

/// Read position in one stream.
struct Cursor {
  const Arrival* next;
  const Arrival* end;
  bool drops;  ///< split drops rather than sink deliveries
};

/// Index of the cursor with the earliest head, or cursors.size() when all
/// are exhausted. Sets `tie` when another cursor's head has that same time.
std::size_t earliest(const std::vector<Cursor>& cursors, bool& tie) {
  std::size_t best = cursors.size();
  tie = false;
  for (std::size_t c = 0; c < cursors.size(); ++c) {
    if (cursors[c].next == cursors[c].end) continue;
    if (best == cursors.size() ||
        cursors[c].next->time < cursors[best].next->time) {
      best = c;
      tie = false;
    } else if (cursors[c].next->time == cursors[best].next->time) {
      tie = true;
    }
  }
  return best;
}

class Recurrence {
 public:
  Recurrence(const Network& net, const SourceSpec& source,
             const SimConfig& config)
      : net_(net),
        horizon_(config.horizon.in_seconds()),
        rng_(config.seed),
        schedule_(net, source, config),
        steps_(job_steps(net, config, rng_)),
        nodes_(net.nodes->size()),
        inputs_(net.nodes->size()),
        busy_(net.nodes->size(), 0.0),
        jobs_(net.nodes->size(), 0),
        recorder_(config) {
    // Streams start sized for every source packet, up to 64Ki entries.
    const double packets =
        horizon_ * schedule_.peak_rate() / schedule_.packet_bytes();
    expected_packets_ = std::min<std::size_t>(
        schedule_.burst_packets() + 1 +
            static_cast<std::size_t>(std::min(packets, 65536.0)),
        65536);
    wire();
  }

  std::optional<SimResult> run() {
    if (!run_source()) return std::nullopt;
    for (const std::size_t i : net_.order) {
      if (!inputs_[i].empty() && !run_join(i)) return std::nullopt;
    }
    if (!record_stats()) return std::nullopt;
    return recorder_.result(net_, busy_, jobs_);
  }

 private:
  /// What a stream holds: a join's input from one producer, one
  /// producer's sink deliveries, or one node's split drops.
  enum class Role { kJoinInput, kDelivery, kDrop };

  /// A node's schedule state between packets.
  struct NodeRun {
    std::optional<WeightedRouter> router;
    std::size_t drop_target = 0;
    double last_arrival = 0.0;
    double free_at = 0.0;
    bool done = false;  ///< a job ran past the horizon
  };

  std::size_t add_target(Target::Kind kind, std::size_t index) {
    targets_.push_back({kind, index});
    return targets_.size() - 1;
  }

  std::size_t add_stream(Role role, std::size_t reserve) {
    streams_.emplace_back();
    streams_.back().reserve(reserve);
    roles_.push_back(role);
    return streams_.size() - 1;
  }

  /// Producer-side routing: each destination becomes a Target, and every
  /// router is rebuilt over target ids instead of queue indices.
  void wire() {
    const std::size_t n = net_.nodes->size();
    std::vector<std::size_t> producers(n, 0);
    const auto count = [&](const std::vector<Destination>& dests) {
      std::vector<std::size_t> seen;
      for (const Destination& d : dests) {
        if (d.queue >= n ||
            std::find(seen.begin(), seen.end(), d.queue) != seen.end()) {
          continue;
        }
        seen.push_back(d.queue);
        ++producers[d.queue];
      }
    };
    count(net_.entries);
    for (const auto& dests : net_.outputs) count(dests);

    // One target per (producer, destination queue); a repeated edge
    // shares its producer's stream.
    const auto retarget = [&](const std::vector<Destination>& dests,
                              std::size_t dropped) {
      std::vector<Destination> out;
      std::vector<std::pair<std::size_t, std::size_t>> made;
      for (const Destination& d : dests) {
        std::size_t id = dropped;
        if (d.queue != kDropped) {
          const auto it = std::find_if(made.begin(), made.end(), [&](auto& m) {
            return m.first == d.queue;
          });
          if (it != made.end()) {
            id = it->second;
          } else if (d.queue < n && producers[d.queue] == 1) {
            id = add_target(Target::Kind::kNode, d.queue);
          } else {
            const Role role = d.queue < n ? Role::kJoinInput : Role::kDelivery;
            const std::size_t s = add_stream(role, expected_packets_);
            if (d.queue < n) inputs_[d.queue].push_back(s);
            id = add_target(Target::Kind::kStream, s);
          }
          made.emplace_back(d.queue, id);
        }
        out.push_back({id, d.weight});
      }
      return WeightedRouter(std::move(out));
    };
    // The source's unmodeled share never enters the system.
    source_router_.emplace(retarget(net_.entries, kDropped));
    for (std::size_t i = 0; i < n; ++i) {
      NodeRun& node = nodes_[i];
      node.drop_target =
          add_target(Target::Kind::kStream, add_stream(Role::kDrop, 0));
      node.router.emplace(retarget(net_.outputs[i], node.drop_target));
    }
  }

  void send(std::size_t target, double t, const Packet& p) {
    const Target& to = targets_[target];
    if (to.kind == Target::Kind::kNode) {
      feed(to.index, t, p);
    } else {
      streams_[to.index].push_back({t, p});
    }
  }

  /// Delivers one packet to node i at time t and runs every job it
  /// completes: start = max(arrival, previous finish), finish = start +
  /// exec, outputs sent on at the finish time.
  void feed(std::size_t i, double t, const Packet& p) {
    NodeRun& node = nodes_[i];
    if (node.done) return;
    JobStep& step = steps_[i];
    step.add(p);
    node.last_arrival = t;
    while (!step.needs_input()) {
      const Job job = step.start();
      const double start = std::max(node.last_arrival, node.free_at);
      const double finish = start + job.exec;
      if (finish > horizon_) {
        node.done = true;
        return;
      }
      node.free_at = finish;
      busy_[i] += job.exec;
      ++jobs_[i];
      const JobOutput out = step.finish(job);
      for (std::size_t k = 0; k < out.count; ++k) {
        const std::size_t to = node.router->route();
        send(to == kDropped ? node.drop_target : to, finish, out.packet);
      }
    }
  }

  /// Emits the source's packets up to the horizon, streaming each through
  /// the nodes it reaches directly. False when the source clock fails to
  /// advance.
  bool run_source() {
    const double bytes = schedule_.packet_bytes();
    emits_.reserve(expected_packets_);
    const auto emit = [&](double t) {
      const std::size_t to = source_router_->route();
      if (to == kDropped) return;  // never enters the system
      emits_.push_back(t);
      send(to, t, Packet{bytes, bytes, t});
    };
    for (std::size_t k = 0; k < schedule_.burst_packets(); ++k) emit(0.0);
    double t = 0.0;
    for (;;) {
      const double rate = schedule_.rate_at(t);
      if (rate <= 0.0) {
        // Idle phase: sleep through to the next profile change.
        const double next = schedule_.next_change(t);
        if (!std::isfinite(next) || t + (next - t) > horizon_) return true;
        t = t + (next - t);
        continue;
      }
      const double at = t + schedule_.gap(rate, rng_);
      if (at > horizon_) return true;
      if (at == t) return false;
      t = at;
      emit(t);
    }
  }

  /// Fills cursors_ with the non-empty streams among `streams`.
  void open_cursors(const std::vector<std::size_t>& streams) {
    for (const std::size_t s : streams) {
      const std::vector<Arrival>& v = streams_[s];
      if (!v.empty()) {
        cursors_.push_back(
            {v.data(), v.data() + v.size(), roles_[s] == Role::kDrop});
      }
    }
  }

  /// Feeds join node i its producers' streams merged by time. False on a
  /// same-instant tie between two producers.
  bool run_join(std::size_t i) {
    cursors_.clear();
    open_cursors(inputs_[i]);
    for (;;) {
      bool tie = false;
      const std::size_t c = earliest(cursors_, tie);
      if (c == cursors_.size()) return true;
      if (tie) return false;
      const Arrival& a = *cursors_[c].next++;
      feed(i, a.time, a.packet);
    }
  }

  /// Feeds the recorder emits, drops and deliveries in DES order.
  bool record_stats() {
    std::vector<std::size_t> outlets;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      if (roles_[s] != Role::kJoinInput) outlets.push_back(s);
    }
    cursors_.clear();
    open_cursors(outlets);
    std::size_t deliveries = 0;
    std::size_t events = emits_.size();
    for (const Cursor& c : cursors_) {
      const auto size = static_cast<std::size_t>(c.end - c.next);
      events += size;
      if (!c.drops) deliveries += size;
    }
    recorder_.reserve(deliveries, events);
    const double bytes = schedule_.packet_bytes();
    std::size_t e = 0;
    for (;;) {
      bool tie = false;
      const std::size_t c = earliest(cursors_, tie);
      if (c == cursors_.size()) {
        for (; e < emits_.size(); ++e) recorder_.emit(emits_[e], bytes);
        return true;
      }
      if (tie) return false;
      Cursor& cur = cursors_[c];
      if (e < emits_.size() && emits_[e] <= cur.next->time) {
        if (emits_[e] == cur.next->time && cur.drops) return false;
        recorder_.emit(emits_[e++], bytes);
        continue;
      }
      if (cur.drops) {
        recorder_.drop(cur.next->time, cur.next->packet.input_bytes);
      } else {
        recorder_.deliver(cur.next->time, cur.next->packet);
      }
      ++cur.next;
    }
  }

  const Network& net_;
  double horizon_;
  util::Xoshiro256 rng_;
  SourceSchedule schedule_;
  std::vector<JobStep> steps_;
  std::vector<NodeRun> nodes_;
  std::optional<WeightedRouter> source_router_;
  std::vector<Target> targets_;
  std::vector<std::vector<Arrival>> streams_;
  std::vector<Role> roles_;
  std::vector<std::vector<std::size_t>> inputs_;  ///< a join's streams
  std::vector<double> emits_;
  std::vector<Cursor> cursors_;
  std::size_t expected_packets_ = 0;
  std::vector<double> busy_;
  std::vector<std::uint64_t> jobs_;
  Recorder recorder_;
};

}  // namespace

bool recurrence_applies(const SimConfig& config) {
  return config.queue_capacity == SimConfig::kUnlimitedQueue &&
         config.onoff_users == 0;
}

std::optional<SimResult> simulate_recurrence(
    const std::vector<netcalc::NodeSpec>& nodes, const SourceSpec& source,
    const SimConfig& config) {
  util::require(recurrence_applies(config),
                "the recurrence needs unlimited queues and no on/off users");
  const Network net = chain_network(nodes, source, config);
  return Recurrence(net, source, config).run();
}

std::optional<SimResult> simulate_dag_recurrence(const netcalc::DagSpec& dag,
                                                 const SourceSpec& source,
                                                 const SimConfig& config) {
  util::require(recurrence_applies(config),
                "the recurrence needs unlimited queues and no on/off users");
  const Network net = dag_network(dag, source, config);
  return Recurrence(net, source, config).run();
}

}  // namespace streamcalc::streamsim::detail
