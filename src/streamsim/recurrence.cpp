// The max-plus (Lindley) recurrence engine: the DES's answer for unlimited
// queues without an event calendar.
//
// With unlimited queues a node never blocks its upstream, so each node's
// schedule depends only on the order of its own input and on its own RNG
// stream. Each source packet is pushed through every node that has a
// single producer as soon as it is emitted (a chain is a one-path DAG); a
// join runs, in topological order, once its producers are done, over
// their streams merged by time. A job starts at max(arrival of the packet
// that completes it, previous finish) and finishes at start + exec; a job
// that would finish after the horizon emits nothing and adds no busy time,
// the DES's `time <= horizon` rule. Draws come from the same per-node
// streams in job order, and source gaps from the root stream after the
// node splits, so every time and size matches the DES bit for bit. On/off
// users (OnOffUsers, from streams split after the nodes') replace the
// constant-rate source and have no DES twin; the pins in
// tests/property/onoff_pin_test.cpp hold them to the DES they replaced.
//
// Two common shapes take a direct path:
//   * Hand-off: hand_off() runs a node on its input and moves on, in a
//     loop, to the single-producer successor that the output of its last
//     job goes to; a sole weight-1 edge skips the router. Only the outputs
//     of earlier jobs from the same input recurse, so a chain of one job
//     per packet walks each packet to the sink without recursion.
//   * Stats fold: when the sink's one producer is a chain's last node, or
//     a join that runs last with no split drop before it, Recorder folds
//     the deliveries against the emits with two pointers and its totals in
//     locals, in chunks as they come: while the source runs for a chain,
//     while the join runs for a join. Neither keeps a sink buffer per
//     packet (nor, for a chain, an emit buffer).
// Joins merge their producers' streams with the k-way merge over stream
// cursors, and the stats of every other shape (lossy splits, several sink
// producers, nodes after the last join) take it too.
//
// What the recurrence does not track is the DES's sequence order among
// events at one instant. Where that order is observable it follows a
// fixed rule or gives up:
//   * A source emit and a sink delivery at one time: the emit comes first,
//     since its timeout was scheduled before that time and the sink's
//     resume is scheduled at it. An on/off release is one window after
//     the user's last event, and the source packet cap keeps a window
//     above 1e-7 of the horizon, so its timer too starts before the time.
//   * Any other meeting of two streams at one instant — two producers
//     feeding one queue (a join, or the sink), a split drop beside an emit,
//     a delivery or another node's drop, or a source whose clock did not
//     advance — returns nullopt, and the caller runs the DES instead.
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "streamsim/detail/core.hpp"
#include "streamsim/detail/engines.hpp"
#include "util/error.hpp"

namespace streamcalc::streamsim::detail {

namespace {

using netcalc::SourceSpec;

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

constexpr std::size_t kNone = SIZE_MAX;

/// Folded deliveries and chain emits are recorded in chunks of this many.
constexpr std::size_t kFoldChunk = 128;
constexpr double kEnd = std::numeric_limits<double>::infinity();

/// How a producer (the source or a node) routes its packets: a sole
/// weight-1 edge goes straight to its one target, anything else through a
/// WeightedRouter over target ids.
struct Route {
  std::optional<Target> sole;
  std::size_t chained = kNone;  ///< the node `sole` feeds, if it is one
  std::optional<WeightedRouter> router;
  std::size_t drop_target = 0;  ///< where the router's kDropped goes
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
        routes_(net.nodes->size()),
        inputs_(net.nodes->size()),
        recorder_(config) {
    // Streams start sized for every source packet, up to 64Ki entries;
    // deliveries that fold as they come need two chunks.
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
    std::vector<double> busy;
    std::vector<std::uint64_t> jobs;
    for (const NodeRun& node : nodes_) {
      busy.push_back(node.busy);
      jobs.push_back(node.jobs);
    }
    return recorder_.result(net_, busy, jobs);
  }

 private:
  /// What a stream holds: a join's input from one producer, one
  /// producer's sink deliveries, or one node's split drops.
  enum class Role { kJoinInput, kDelivery, kDrop };

  /// A node's schedule state between packets.
  struct NodeRun {
    double free_at = 0.0;
    double busy = 0.0;        ///< total execution time of its jobs
    std::uint64_t jobs = 0;   ///< jobs finished within the horizon
    bool done = false;        ///< a job ran past the horizon
  };

  std::size_t add_target(Target::Kind kind, std::size_t index) {
    targets_.push_back({kind, index});
    return targets_.size() - 1;
  }

  std::size_t add_stream(Role role) {
    streams_.emplace_back();
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
    const auto make_route = [&](const std::vector<Destination>& dests,
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
            const std::size_t s = add_stream(role);
            if (d.queue < n) inputs_[d.queue].push_back(s);
            id = add_target(Target::Kind::kStream, s);
          }
          made.emplace_back(d.queue, id);
        }
        out.push_back({id, d.weight});
      }
      Route r;
      r.drop_target = dropped;
      // WeightedRouter::route() always picks a sole weight-1 destination.
      if (out.size() == 1 && out.front().weight == 1.0 &&
          dests.front().queue != kDropped) {
        r.sole = targets_[out.front().queue];
        if (r.sole->kind == Target::Kind::kNode) r.chained = r.sole->index;
      } else {
        r.router.emplace(std::move(out));
      }
      return r;
    };
    // The source's unmodeled share never enters the system.
    source_route_ = make_route(net_.entries, kDropped);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t drops =
          add_target(Target::Kind::kStream, add_stream(Role::kDrop));
      routes_[i] = make_route(net_.outputs[i], drops);
    }
    find_fold();
    const bool folds = folding_ || sink_join_ != kNone;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      if (roles_[s] == Role::kDrop) continue;
      streams_[s].reserve(s == sink_ && folds ? 2 * kFoldChunk
                                              : expected_packets_);
    }
  }

  /// Finds the sink's one delivery stream, if it has one producer, and
  /// whether its deliveries can fold as they come: from a chain, whose
  /// sole edges drop nothing and whose deliveries come in source order; or
  /// from a join, the last node to run, if the nodes before it dropped
  /// nothing (decided in run_join()). Otherwise every outlet stream is
  /// kept to the end.
  void find_fold() {
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      if (roles_[s] != Role::kDelivery) continue;
      if (sink_ != kNone) {
        sink_ = kNone;
        return;
      }
      sink_ = s;
    }
    if (sink_ == kNone) return;
    bool chain = true;
    for (std::size_t i = 0; i < routes_.size(); ++i) {
      const std::optional<Target>& sole = routes_[i].sole;
      if (!sole || !inputs_[i].empty()) chain = false;
      if (sole && sole->kind == Target::Kind::kStream && sole->index == sink_ &&
          !inputs_[i].empty()) {
        sink_join_ = i;
      }
    }
    folding_ = chain;
  }

  /// Hands `count` copies of `p` at time t to one target.
  void send(const Target& to, double t, const Packet& p, std::size_t count) {
    if (to.kind == Target::Kind::kNode) {
      hand_off(to.index, t, p, count);
    } else {
      std::vector<Arrival>& s = streams_[to.index];
      for (std::size_t k = 0; k < count; ++k) s.push_back({t, p});
    }
  }

  /// Routes the copies of `out`, leaving node i at time t. With
  /// `keep_last`, returns the single-producer node that the last copy goes
  /// to, unsent, for hand_off() to run next; else kNone.
  std::size_t route(Route& r, double t, const JobOutput& out,
                    bool keep_last) {
    if (r.sole) {
      send(*r.sole, t, out.packet, out.count);
      return kNone;
    }
    for (std::size_t k = 0; k < out.count; ++k) {
      const std::size_t to = r.router->route();
      const Target& target = targets_[to == kDropped ? r.drop_target : to];
      if (keep_last && k + 1 == out.count &&
          target.kind == Target::Kind::kNode) {
        return target.index;
      }
      send(target, t, out.packet, 1);
    }
    return kNone;
  }

  /// Delivers `count` copies of `p` at time t to node i and runs every
  /// job they complete: start = max(arrival, previous finish), finish =
  /// start + exec, outputs routed on at the finish time. The output of
  /// the last job goes on to a single-producer successor in this loop:
  /// all of it over a sole edge, or its last copy out of a router. Earlier
  /// outputs recurse first, so every node still sees its input in time
  /// order.
  void hand_off(std::size_t i, double t, Packet p, std::size_t count) {
    const double horizon = horizon_;
    for (;;) {
      NodeRun& node = nodes_[i];
      JobStep& step = steps_[i];
      Route& r = routes_[i];
      std::size_t next = kNone;
      for (std::size_t k = 0; k < count && next == kNone; ++k) {
        if (node.done) return;
        step.add(p);
        while (!step.needs_input()) {
          const Job job = step.start();
          const double finish = std::max(t, node.free_at) + job.exec;
          if (finish > horizon) {
            node.done = true;
            return;
          }
          node.free_at = finish;
          node.busy += job.exec;
          ++node.jobs;
          const JobOutput out = step.finish(job);
          const bool last = k + 1 == count && step.needs_input();
          std::size_t copies = out.count;
          if (last && r.chained != kNone) {
            next = r.chained;
          } else if ((next = route(r, finish, out, last)) != kNone) {
            copies = 1;
          }
          if (next != kNone) {  // the hand-off this loop moves on to
            t = finish;
            p = out.packet;
            count = copies;
            break;
          }
        }
      }
      if (next == kNone) return;
      i = next;
    }
  }

  /// Emits the source's packets up to the horizon, streaming each through
  /// the nodes it reaches directly. False when the source clock fails to
  /// advance.
  bool run_source() {
    const double bytes = schedule_.packet_bytes();
    emits_.reserve(folding_ ? kFoldChunk : expected_packets_);
    const auto emit = [&](double t) {
      const Target* to = source_route_.sole ? &*source_route_.sole : nullptr;
      if (to == nullptr) {
        const std::size_t id = source_route_.router->route();
        if (id == kDropped) return;  // never enters the system
        to = &targets_[id];
      }
      if (folding_ && emits_.size() == kFoldChunk) {
        // Every delivery before t is in, and every later one comes after
        // the emits so far.
        fold(t);
        recorder_.emit(std::span(emits_).subspan(emits_done_), bytes);
        emits_.clear();
        emits_done_ = 0;
      }
      emits_.push_back(t);
      send(*to, t, Packet{bytes, bytes, t}, 1);
    };
    if (schedule_.onoff()) {
      OnOffUsers users = schedule_.users(rng_);
      for (double t = users.next(); t <= horizon_; t = users.next()) emit(t);
      return true;
    }
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

  /// Feeds join node i its producers' streams merged by time. False on a
  /// same-instant tie between two producers.
  bool run_join(std::size_t i) {
    if (i == sink_join_) {
      folding_ = true;
      for (std::size_t s = 0; s < streams_.size(); ++s) {
        if (roles_[s] == Role::kDrop && !streams_[s].empty()) folding_ = false;
      }
    }
    const auto feed = [&](const Arrival& a) {
      hand_off(i, a.time, a.packet, 1);
      if (folding_ && streams_[sink_].size() >= kFoldChunk) fold(kEnd);
    };
    cursors_.clear();
    open_cursors(inputs_[i]);
    for (;;) {
      bool tie = false;
      const std::size_t c = earliest(cursors_, tie);
      if (c == cursors_.size()) return true;
      if (tie) return false;
      feed(*cursors_[c].next++);
    }
  }

  /// Records the sink deliveries before `until`, each after the emits at
  /// or before its time, and drops them from the sink stream.
  void fold(double until) {
    std::vector<Arrival>& d = streams_[sink_];
    const auto end = std::partition_point(
        d.begin(), d.end(), [&](const Arrival& a) { return a.time < until; });
    emits_done_ += recorder_.deliver(
        std::span(emits_).subspan(emits_done_), schedule_.packet_bytes(),
        std::span(d.begin(), end));
    d.erase(d.begin(), end);
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

  /// Feeds the recorder emits, drops and deliveries in DES order. Folded
  /// deliveries need only their last chunk; otherwise the outlet streams
  /// take the k-way merge.
  bool record_stats() {
    const double bytes = schedule_.packet_bytes();
    if (folding_) {
      fold(kEnd);
      recorder_.emit(std::span(emits_).subspan(emits_done_), bytes);
      return true;
    }
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
  Route source_route_;
  std::vector<Route> routes_;
  std::vector<Target> targets_;
  std::vector<std::vector<Arrival>> streams_;
  std::vector<Role> roles_;
  std::vector<std::vector<std::size_t>> inputs_;  ///< a join's streams
  std::vector<double> emits_;
  std::vector<Cursor> cursors_;
  std::size_t sink_ = kNone;       ///< the sink's one delivery stream
  std::size_t sink_join_ = kNone;  ///< a join feeding it over a sole edge
  bool folding_ = false;           ///< deliveries fold as they come
  std::size_t emits_done_ = 0;     ///< emits_ already recorded
  std::size_t expected_packets_ = 0;
  Recorder recorder_;
};

}  // namespace

bool recurrence_applies(const SimConfig& config) {
  return config.queue_capacity == SimConfig::kUnlimitedQueue;
}

std::optional<SimResult> simulate_recurrence(const netcalc::DagSpec& dag,
                                             const SourceSpec& source,
                                             const SimConfig& config) {
  util::require(recurrence_applies(config),
                "the recurrence needs unlimited queues");
  const Network net = network(dag, source, config);
  return Recurrence(net, source, config).run();
}

}  // namespace streamcalc::streamsim::detail
