#include "des/pipeline.hpp"

#include <cmath>
#include <memory>

#include "des/simulation.hpp"
#include "des/store.hpp"
#include "streamsim/detail/core.hpp"
#include "util/error.hpp"

namespace streamcalc::des {

namespace {

using netcalc::SourceSpec;
using streamsim::SimConfig;
using streamsim::SimResult;
using streamsim::detail::JobStep;
using streamsim::detail::Job;
using streamsim::detail::JobOutput;
using streamsim::detail::kDropped;
using streamsim::detail::Network;
using streamsim::detail::Packet;
using streamsim::detail::Recorder;
using streamsim::detail::SourceSchedule;
using streamsim::detail::WeightedRouter;
using util::Xoshiro256;

/// The running simulation: owns the DES kernel, queues and routers.
class DesRunner {
 public:
  DesRunner(const Network& net, const SourceSpec& source,
            const SimConfig& config)
      : net_(net),
        config_(config),
        rng_(config.seed),
        schedule_(net, source, config),
        steps_(streamsim::detail::job_steps(net, config, rng_)),
        recorder_(config) {
    const std::size_t n = net_.nodes->size();
    for (std::size_t i = 0; i <= n; ++i) {  // index n = sink
      queues_.push_back(
          std::make_unique<Store<Packet>>(sim_, config_.queue_capacity));
    }
    for (const auto& dests : net_.outputs) routers_.emplace_back(dests);
    source_router_ = std::make_unique<WeightedRouter>(net_.entries);
    busy_.assign(n, 0.0);
    jobs_.assign(n, 0);
  }

  SimResult run() {
    sim_.spawn(source_process());
    for (std::size_t i = 0; i < net_.nodes->size(); ++i) {
      sim_.spawn(node_process(i));
    }
    sim_.spawn(sink_process());
    sim_.run_until(config_.horizon.in_seconds());
    return recorder_.result(net_, busy_, jobs_);
  }

 private:
  Process source_process() {
    for (std::size_t k = 0; k < schedule_.burst_packets(); ++k) {
      co_await route_source_packet();
    }
    for (;;) {
      const double rate = schedule_.rate_at(sim_.now());
      if (rate <= 0.0) {
        // Idle phase: sleep through to the next profile change.
        const double next = schedule_.next_change(sim_.now());
        if (!std::isfinite(next)) co_return;  // silent forever
        co_await sim_.timeout(next - sim_.now());
        continue;
      }
      co_await sim_.timeout(schedule_.gap(rate, rng_));
      co_await route_source_packet();
    }
  }

  Store<Packet>::PutAwaiter route_source_packet() {
    const double bytes = schedule_.packet_bytes();
    const std::size_t dest = source_router_->route();
    if (dest == kDropped) {
      // Unmodeled share: never enters the system; hand it to a dummy
      // always-accepting path by re-routing to the sink without counting.
      return queues_.back()->put(Packet{0.0, 0.0, sim_.now()});
    }
    recorder_.emit(sim_.now(), bytes);
    return queues_[dest]->put(Packet{bytes, bytes, sim_.now()});
  }

  Process node_process(std::size_t i) {
    JobStep& step = steps_[i];
    for (;;) {
      while (step.needs_input()) step.add(co_await queues_[i]->get());
      const Job job = step.start();
      co_await sim_.timeout(job.exec);
      busy_[i] += job.exec;
      ++jobs_[i];
      const JobOutput out = step.finish(job);
      for (std::size_t k = 0; k < out.count; ++k) {
        const std::size_t dest = routers_[i].route();
        if (dest == kDropped) {
          // Leaves the modeled system.
          recorder_.drop(sim_.now(), out.packet.input_bytes);
          continue;
        }
        co_await queues_[dest]->put(out.packet);
      }
    }
  }

  Process sink_process() {
    for (;;) {
      const Packet p = co_await queues_.back()->get();
      if (p.input_bytes <= 0.0) continue;  // unmodeled-share placeholder
      recorder_.deliver(sim_.now(), p);
    }
  }

  const Network& net_;
  const SimConfig& config_;

  Simulation sim_;
  Xoshiro256 rng_;
  SourceSchedule schedule_;
  std::vector<JobStep> steps_;
  std::vector<std::unique_ptr<Store<Packet>>> queues_;
  std::vector<WeightedRouter> routers_;
  std::unique_ptr<WeightedRouter> source_router_;
  std::vector<double> busy_;
  std::vector<std::uint64_t> jobs_;
  Recorder recorder_;
};

}  // namespace

SimResult simulate(const netcalc::DagSpec& dag, const SourceSpec& source,
                   const SimConfig& config) {
  const Network net = streamsim::detail::network(dag, source, config);
  util::require(config.onoff_users == 0,
                "the DES runs no on/off sources");
  return DesRunner(net, source, config).run();
}

}  // namespace streamcalc::des
