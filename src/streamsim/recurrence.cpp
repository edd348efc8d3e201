// The max-plus (Lindley) recurrence engine: the DES's answer for unlimited
// queues without an event calendar.
//
// With unlimited queues a node never blocks its upstream, so each node's
// schedule depends only on the order of its own input and on its own RNG
// stream. A job starts at max(arrival of the packet that completes it,
// previous finish) and finishes at start + exec; a job that would finish
// after the horizon emits nothing and adds no busy time, the DES's
// `time <= horizon` rule, and its node takes no later input. Draws come
// from the same per-node streams in job order, and source gaps from the
// root stream after the node splits, so every time and size matches the
// DES bit for bit. On/off users (OnOffUsers, from streams split after the
// nodes') replace the constant-rate source and have no DES twin; the pins
// in tests/property/onoff_pin_test.cpp hold them to the DES they replaced.
//
// One round loop runs chains and DAGs alike (a chain is a one-path DAG).
// Each round the source releases up to kRoundPackets packets. Then every
// node, in topological order, runs its jobs over the input buffered for it
// and writes its outputs into one Stream per (producer, destination): a
// node's input, the sink, or the producer's split drops. A router routes
// all of a node's outputs of the round in one call. A node with one
// producer takes its whole input. A join merges its producers' streams by
// time, but only below the watermark: the smallest latest time among the
// producers that can still send, since none of them sends anything
// earlier. At the end of the round the recorder takes the emits, drops and
// deliveries before the earliest time anything may still happen: the
// source's clock or a join input still held back. So a stream holds about
// a round of packets, not the run, unless a join's watermark holds a
// backlog back (one branch running ahead of another, or one long silent);
// a stream forgets its taken packets once they are half of it, so each
// packet moves at most once.
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
//     advance — returns nullopt, and the caller runs the DES instead. A
//     join checks every head it takes, also once its node has passed the
//     horizon.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>

#include "streamsim/detail/core.hpp"
#include "streamsim/detail/engines.hpp"
#include "util/error.hpp"

namespace streamcalc::streamsim::detail {

namespace {

using netcalc::SourceSpec;

constexpr std::size_t kNone = SIZE_MAX;

constexpr double kEnd = std::numeric_limits<double>::infinity();

/// Forgets the first `taken` items once they are at least half of `items`,
/// and returns the read position after them. Each item then moves at most
/// once, however long a backlog waits behind a join's watermark.
template <class T>
std::size_t forget(std::vector<T>& items, std::size_t taken) {
  if (2 * taken < items.size()) return taken;
  items.erase(items.begin(),
              items.begin() + static_cast<std::ptrdiff_t>(taken));
  return 0;
}

/// The packets one producer (the source or a node) sends one way: into a
/// node, into the sink, or out of its split. Those before `head` are taken.
struct Stream {
  std::vector<Arrival> items;
  std::size_t head = 0;
  std::size_t producer = kNone;  ///< node index; kNone for the source
  bool drops = false;            ///< split drops rather than sink deliveries
  double last = -kEnd;           ///< latest time taken, once items is empty

  bool empty() const { return head == items.size(); }
  /// Latest time this stream ever held.
  double latest() const { return items.empty() ? last : items.back().time; }
  /// Forgets the items taken, or enough of them.
  void compact() {
    if (head == 0) return;
    last = items.back().time;
    head = forget(items, head);
  }
};

/// How a producer routes its packets: a sole weight-1 edge goes straight to
/// its one stream, anything else through a WeightedRouter over indices
/// into `streams`.
struct Route {
  std::size_t sole = kNone;
  std::optional<WeightedRouter> router;
  std::vector<std::size_t> streams;
  std::size_t drops = kNone;  ///< where kDropped goes; kNone: nowhere
};

/// Read position in one stream, up to `end`.
struct Cursor {
  const Arrival* next;
  const Arrival* end;
  Stream* stream;
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
        recorder_(config) {
    if (schedule_.onoff()) {
      users_.emplace(schedule_.users(rng_));
    } else {
      burst_left_ = schedule_.burst_packets();
    }
    wire();
  }

  std::optional<SimResult> run() {
    for (;;) {
      const bool final = !release();
      if (stalled_) return std::nullopt;
      for (const std::size_t i : net_.order) {
        if (!run_node(i, final)) return std::nullopt;
      }
      if (!record(final ? kEnd : held_back())) return std::nullopt;
      if (final) break;
    }
    std::vector<double> busy;
    std::vector<std::uint64_t> jobs;
    for (const NodeRun& node : nodes_) {
      busy.push_back(node.busy);
      jobs.push_back(node.jobs);
    }
    return recorder_.result(net_, busy, jobs);
  }

 private:
  /// A node's schedule state between rounds, and its wiring.
  struct NodeRun {
    double free_at = 0.0;
    double busy = 0.0;        ///< total execution time of its jobs
    std::uint64_t jobs = 0;   ///< jobs finished within the horizon
    bool done = false;        ///< a job ran past the horizon
    std::vector<std::size_t> inputs;  ///< one stream per producer
    Route route;
  };

  /// A routed node's job output, held until the round's routing call.
  struct Output {
    double time;
    JobOutput out;
  };

  std::size_t add_stream(std::size_t producer, bool drops) {
    streams_.emplace_back();
    streams_.back().producer = producer;
    streams_.back().drops = drops;
    return streams_.size() - 1;
  }

  /// One stream per (producer, destination queue); a repeated edge shares
  /// its producer's stream. Every router is rebuilt over stream slots
  /// instead of queue indices.
  void wire() {
    const std::size_t n = net_.nodes->size();
    const auto make_route = [&](std::size_t producer,
                                const std::vector<Destination>& dests,
                                std::size_t drops) {
      Route r;
      r.drops = drops;
      std::vector<std::size_t> queues;
      std::vector<Destination> slots;
      for (const Destination& d : dests) {
        std::size_t slot = kDropped;
        if (d.queue != kDropped) {
          slot = static_cast<std::size_t>(
              std::find(queues.begin(), queues.end(), d.queue) -
              queues.begin());
          if (slot == queues.size()) {
            const std::size_t s = add_stream(producer, false);
            (d.queue < n ? nodes_[d.queue].inputs : outlets_).push_back(s);
            queues.push_back(d.queue);
            r.streams.push_back(s);
          }
        }
        slots.push_back({slot, d.weight});
      }
      // WeightedRouter::route() always picks a sole weight-1 destination.
      if (slots.size() == 1 && slots.front().weight == 1.0 &&
          dests.front().queue != kDropped) {
        r.sole = r.streams.front();
      } else {
        r.router.emplace(std::move(slots));
      }
      return r;
    };
    // The source's unmodeled share never enters the system.
    source_route_ = make_route(kNone, net_.entries, kNone);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t drops = add_stream(i, true);
      outlets_.push_back(drops);
      nodes_[i].route = make_route(i, net_.outputs[i], drops);
    }
    for (Stream& s : streams_) {
      if (!s.drops) s.items.reserve(kRoundPackets);
    }
    emits_.reserve(kRoundPackets);
  }

  /// Releases the source's next packets, up to kRoundPackets, into the
  /// streams they enter and the emits. False once the source has ended.
  bool release() {
    std::array<double, kRoundPackets> times;
    std::size_t n = 0;
    for (; n < kRoundPackets && burst_left_ > 0; --burst_left_) {
      times[n++] = 0.0;
    }
    while (users_ && n < kRoundPackets && !ended_) {
      const double t = users_->next();
      if (t > horizon_) {
        ended_ = true;
      } else {
        times[n++] = clock_ = t;
      }
    }
    while (!users_ && n < kRoundPackets && !ended_) {
      const double rate = schedule_.rate_at(clock_);
      if (rate <= 0.0) {
        // Idle phase: sleep through to the next profile change.
        const double next = schedule_.next_change(clock_);
        if (!std::isfinite(next) || clock_ + (next - clock_) > horizon_) {
          ended_ = true;
        } else {
          clock_ = clock_ + (next - clock_);
        }
        continue;
      }
      const double at = clock_ + schedule_.gap(rate, rng_);
      if (at > horizon_) {
        ended_ = true;
      } else if (at == clock_) {
        ended_ = stalled_ = true;
      } else {
        times[n++] = clock_ = at;
      }
    }

    const double bytes = schedule_.packet_bytes();
    const Route& r = source_route_;
    if (r.sole != kNone) {
      std::vector<Arrival>& to = streams_[r.sole].items;
      for (std::size_t k = 0; k < n; ++k) {
        to.push_back({times[k], Packet{bytes, bytes, times[k]}});
      }
      emits_.insert(emits_.end(), times.begin(), times.begin() + n);
    } else {
      dests_.resize(n);
      source_route_.router->route(dests_);
      for (std::size_t k = 0; k < n; ++k) {
        if (dests_[k] == kDropped) continue;  // never enters the system
        emits_.push_back(times[k]);
        streams_[r.streams[dests_[k]]].items.push_back(
            {times[k], Packet{bytes, bytes, times[k]}});
      }
    }
    return !ended_;
  }

  /// Runs node i over its input of this round and routes what it emits.
  /// False on a same-instant tie between two of a join's producers.
  bool run_node(std::size_t i, bool final) {
    NodeRun& node = nodes_[i];
    if (node.inputs.size() == 1) {
      Stream& in = streams_[node.inputs.front()];
      run_jobs(node, steps_[i], std::span(in.items).subspan(in.head));
      in.head = in.items.size();
      in.compact();
    } else if (merge(node, final)) {
      run_jobs(node, steps_[i], merged_);
    } else {
      return false;
    }
    if (!outputs_.empty()) route_outputs(node.route);
    return true;
  }

  /// Merges a join's input streams by time into merged_, below the
  /// watermark unless this is the final round. False on a same-instant tie
  /// between two of its producers.
  bool merge(const NodeRun& node, bool final) {
    double watermark = kEnd;
    cursors_.clear();
    for (const std::size_t s : node.inputs) {
      Stream& in = streams_[s];
      if (!final && (in.producer == kNone || !nodes_[in.producer].done)) {
        watermark = std::min(watermark, in.latest());
      }
      if (!in.empty()) {
        cursors_.push_back({in.items.data() + in.head,
                            in.items.data() + in.items.size(), &in});
      }
    }
    merged_.clear();
    bool ok = true;
    for (;;) {
      bool tie = false;
      const std::size_t c = earliest(cursors_, tie);
      if (c == cursors_.size() || !(cursors_[c].next->time < watermark)) {
        break;
      }
      if (tie) {
        ok = false;
        break;
      }
      merged_.push_back(*cursors_[c].next++);
    }
    take(cursors_);
    return ok;
  }

  /// Moves each cursor's stream past what the cursor read, and forgets it.
  static void take(const std::vector<Cursor>& cursors) {
    for (const Cursor& c : cursors) {
      Stream& s = *c.stream;
      s.head = static_cast<std::size_t>(c.next - s.items.data());
      s.compact();
    }
  }

  /// Delivers a node its input packets in order and runs every job they
  /// complete: start = max(arrival, previous finish), finish = start +
  /// exec, outputs leaving at the finish time. A sole edge takes them at
  /// once; a router's go to outputs_.
  void run_jobs(NodeRun& node, JobStep& step, std::span<const Arrival> input) {
    std::vector<Arrival>* sole =
        node.route.sole == kNone ? nullptr : &streams_[node.route.sole].items;
    double free_at = node.free_at;
    double busy = node.busy;
    std::uint64_t jobs = node.jobs;
    for (const Arrival& a : input) {
      if (node.done) break;
      step.add(a.packet);
      while (!step.needs_input()) {
        const Job job = step.start();
        const double finish = std::max(a.time, free_at) + job.exec;
        if (finish > horizon_) {
          node.done = true;
          break;
        }
        free_at = finish;
        busy += job.exec;
        ++jobs;
        const JobOutput out = step.finish(job);
        if (sole != nullptr) {
          for (std::size_t k = 0; k < out.count; ++k) {
            sole->push_back({finish, out.packet});
          }
        } else {
          outputs_.push_back({finish, out});
          copies_ += out.count;
        }
      }
    }
    node.free_at = free_at;
    node.busy = busy;
    node.jobs = jobs;
  }

  /// Routes the copies in outputs_ with one router call, in job order.
  void route_outputs(Route& r) {
    dests_.resize(copies_);
    r.router->route(dests_);
    const std::size_t* to = dests_.data();
    for (const Output& o : outputs_) {
      for (std::size_t k = 0; k < o.out.count; ++k, ++to) {
        const std::size_t s = *to == kDropped ? r.drops : r.streams[*to];
        streams_[s].items.push_back({o.time, o.out.packet});
      }
    }
    outputs_.clear();
    copies_ = 0;
  }

  /// The earliest time a later round may emit, drop or deliver at: the
  /// source's clock, or an earlier join input still held back.
  double held_back() const {
    double t = clock_;
    for (const NodeRun& node : nodes_) {
      if (node.inputs.size() == 1) continue;
      for (const std::size_t s : node.inputs) {
        const Stream& in = streams_[s];
        if (!in.empty()) t = std::min(t, in.items[in.head].time);
      }
    }
    return t;
  }

  /// Feeds the recorder the emits, drops and deliveries before `until` in
  /// DES order. One delivery stream takes Recorder's two-pointer fold;
  /// several outlets take the k-way merge. False on a same-instant meeting
  /// of two outlets, or of a drop and an emit.
  bool record(double until) {
    const double bytes = schedule_.packet_bytes();
    const auto first =
        emits_.begin() + static_cast<std::ptrdiff_t>(emit_head_);
    const std::span<const double> emits(
        first, std::partition_point(first, emits_.end(),
                                    [&](double t) { return t < until; }));
    cursors_.clear();
    for (const std::size_t s : outlets_) {
      Stream& o = streams_[s];
      if (o.empty() || !(o.items[o.head].time < until)) continue;
      const Arrival* begin = o.items.data() + o.head;
      const Arrival* end = std::partition_point(
          begin, static_cast<const Arrival*>(o.items.data() + o.items.size()),
          [&](const Arrival& a) { return a.time < until; });
      cursors_.push_back({begin, end, &o});
    }
    std::size_t e = 0;
    bool ok = true;
    if (cursors_.size() == 1 && !cursors_.front().stream->drops) {
      Cursor& c = cursors_.front();
      e = recorder_.deliver(emits, bytes, std::span(c.next, c.end));
      c.next = c.end;
    } else {
      for (;;) {
        bool tie = false;
        const std::size_t c = earliest(cursors_, tie);
        if (c == cursors_.size()) break;
        if (tie) {
          ok = false;
          break;
        }
        Cursor& cur = cursors_[c];
        if (e < emits.size() && emits[e] <= cur.next->time) {
          if (emits[e] == cur.next->time && cur.stream->drops) {
            ok = false;
            break;
          }
          recorder_.emit(emits[e++], bytes);
          continue;
        }
        if (cur.stream->drops) {
          recorder_.drop(cur.next->time, cur.next->packet.input_bytes);
        } else {
          recorder_.deliver(cur.next->time, cur.next->packet);
        }
        ++cur.next;
      }
      if (!ok) return false;
    }
    recorder_.emit(emits.subspan(e), bytes);
    emit_head_ = forget(emits_, emit_head_ + emits.size());
    take(cursors_);
    return true;
  }

  const Network& net_;
  double horizon_;
  util::Xoshiro256 rng_;
  SourceSchedule schedule_;
  std::vector<JobStep> steps_;
  std::optional<OnOffUsers> users_;
  std::size_t burst_left_ = 0;
  double clock_ = 0.0;    ///< the source's clock: its latest release
  bool ended_ = false;    ///< the source releases nothing more
  bool stalled_ = false;  ///< its clock failed to advance
  std::vector<NodeRun> nodes_;
  Route source_route_;
  std::vector<Stream> streams_;
  std::vector<std::size_t> outlets_;  ///< sink deliveries and split drops
  std::vector<double> emits_;         ///< source emits
  std::size_t emit_head_ = 0;         ///< emits_ before it are recorded
  std::vector<Output> outputs_;
  std::size_t copies_ = 0;  ///< packets in outputs_
  std::vector<std::size_t> dests_;
  std::vector<Cursor> cursors_;
  std::vector<Arrival> merged_;  ///< a join's input of the round
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
