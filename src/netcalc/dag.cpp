#include "netcalc/dag.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/load.hpp"
#include "netcalc/packetizer.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {

namespace {
using minplus::Curve;
using util::DataRate;
using util::DataSize;
using util::Duration;
}  // namespace

Curve source_arrival(const SourceSpec& source) {
  Curve alpha = Curve::affine(source.rate, source.burst);
  if (source.job_volume.is_finite()) {
    // min(alpha, job_volume for t > 0): all data of the job.
    alpha = minplus::minimum(alpha,
                             Curve::constant(source.job_volume.in_bytes()));
  }
  return packetize_arrival(alpha, source.packet);
}

DataRate basis_rate(const NodeSpec& node, RateBasis basis) {
  switch (basis) {
    case RateBasis::kMin:
      return node.rate_min();
    case RateBasis::kAvg:
      return node.rate_avg();
    case RateBasis::kMax:
      return node.rate_max();
  }
  return node.rate_min();
}

DagSpec DagSpec::chain(std::vector<NodeSpec> nodes) {
  DagSpec dag;
  dag.entries = {{0, 0, 1.0}};
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    dag.edges.push_back({i, i + 1, 1.0});
  }
  dag.nodes = std::move(nodes);
  return dag;
}

std::vector<std::size_t> DagSpec::validate() const {
  util::require(!nodes.empty(), "DagSpec requires at least one node");
  util::require(!entries.empty(), "DagSpec requires at least one entry");
  for (const NodeSpec& n : nodes) n.validate();
  std::vector<double> out_sum(nodes.size(), 0.0);
  for (const DagEdge& e : edges) {
    util::require(e.from < nodes.size() && e.to < nodes.size(),
                  "DagSpec edge index out of range");
    util::require(e.from != e.to, "DagSpec self-loop");
    util::require(e.fraction > 0.0 && e.fraction <= 1.0,
                  "DagSpec edge fraction must be in (0, 1]");
    out_sum[e.from] += e.fraction;
  }
  for (double s : out_sum) {
    util::require(s <= 1.0 + 1e-9,
                  "DagSpec outgoing fractions exceed 1 at a node");
  }
  double entry_sum = 0.0;
  for (const DagEdge& e : entries) {
    util::require(e.to < nodes.size(), "DagSpec entry index out of range");
    util::require(e.fraction > 0.0 && e.fraction <= 1.0,
                  "DagSpec entry fraction must be in (0, 1]");
    entry_sum += e.fraction;
  }
  util::require(entry_sum <= 1.0 + 1e-9,
                "DagSpec entry fractions exceed 1");
  const auto order = topological_order();
  util::require(order.size() == nodes.size(), "DagSpec is cyclic");
  // Reachability: in topological order every producer is settled before
  // its consumers, so one pass marks every node the entries feed.
  std::vector<bool> fed(nodes.size(), false);
  for (const DagEdge& e : entries) fed[e.to] = true;
  for (std::size_t i : order) {
    if (!fed[i]) {
      throw util::PreconditionError("DagSpec node '" + nodes[i].name +
                                    "' is unreachable from the entries");
    }
    for (const DagEdge& e : edges) {
      if (e.from == i) fed[e.to] = true;
    }
  }
  return order;
}

std::vector<std::size_t> DagSpec::topological_order() const {
  std::vector<std::size_t> indegree(nodes.size(), 0);
  for (const DagEdge& e : edges) ++indegree[e.to];
  // Kahn's algorithm with `order` as its FIFO: nodes are settled in the
  // order they become ready.
  std::vector<std::size_t> order;
  order.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (indegree[i] == 0) order.push_back(i);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    for (const DagEdge& e : edges) {
      if (e.from == i && --indegree[e.to] == 0) order.push_back(e.to);
    }
  }
  return order;
}

std::vector<std::vector<std::size_t>> DagSpec::paths() const {
  std::vector<bool> has_out(nodes.size(), false);
  for (const DagEdge& e : edges) has_out[e.from] = true;
  std::vector<std::vector<std::size_t>> result;
  std::vector<std::size_t> stack;
  const std::function<void(std::size_t)> dfs = [&](std::size_t i) {
    stack.push_back(i);
    if (!has_out[i]) {
      result.push_back(stack);
    } else {
      for (const DagEdge& e : edges) {
        if (e.from == i) dfs(e.to);
      }
    }
    stack.pop_back();
  };
  for (const DagEdge& e : entries) dfs(e.to);
  return result;
}

DagModel::DagModel(DagSpec dag, SourceSpec source, ModelPolicy policy)
    : DagModel(std::move(dag), source, policy, {}, {}) {}

DagModel DagModel::with_entry_arrivals(DagSpec dag, SourceSpec source,
                                       ModelPolicy policy,
                                       std::vector<Curve> entry_envelopes) {
  util::require(entry_envelopes.size() == dag.entries.size(),
                "DagModel::with_entry_arrivals requires one envelope per "
                "entry");
  std::vector<double> rates;
  rates.reserve(entry_envelopes.size());
  for (const Curve& e : entry_envelopes) rates.push_back(e.tail_slope());
  return DagModel(std::move(dag), source, policy, std::move(entry_envelopes),
                  std::move(rates));
}

DagModel::DagModel(DagSpec dag, SourceSpec source, ModelPolicy policy,
                   std::vector<Curve> entry_envelopes,
                   std::vector<double> offered)
    : dag_(std::move(dag)),
      source_(source),
      policy_(policy),
      entry_curve_(std::move(entry_envelopes)) {
  const std::vector<std::size_t> order = dag_.validate();
  util::require(source_.rate > DataRate::bytes_per_sec(0),
                "DagModel requires a positive source rate");
  build(order, offered);
}

void DagModel::build(const std::vector<std::size_t>& order,
                     const std::vector<double>& offered) {
  const std::size_t n = dag_.nodes.size();
  arrival_.resize(n);
  service_.resize(n);
  max_service_.resize(n);
  output_.resize(n);
  edge_curve_.resize(dag_.edges.size());
  vol_in_.resize(n);
  vol_best_.resize(n);
  wait_.resize(n);

  std::vector<Interval> rates;
  if (entry_curve_.empty()) {
    // Per-entry envelopes from the source: proportional splitters with
    // block granularity.
    const Curve alpha = source_arrival(source_);
    entry_curve_.resize(dag_.entries.size());
    for (std::size_t k = 0; k < dag_.entries.size(); ++k) {
      entry_curve_[k] = alpha.scale_value(dag_.entries[k].fraction);
      if (dag_.entries[k].fraction < 1.0) {
        // Splitter granularity: a sub-flow can be ahead of its long-run
        // share by up to one source packet.
        entry_curve_[k] =
            entry_curve_[k].plus_step(source_.packet.in_bytes());
      }
    }
    rates = entry_rates(dag_.entries,
                        Interval::point(source_.rate.in_bytes_per_sec()));
  } else {
    for (double r : offered) rates.push_back(Interval::point(r));
  }

  for (const NodeLoad& load :
       propagate_load(dag_, order, policy_.service_basis, rates)) {
    build_node(load);
  }
}

void DagModel::build_node(const NodeLoad& load) {
  const std::size_t i = load.node;
  const NodeSpec& node = dag_.nodes[i];
  // Merge incoming envelopes: entries first, then edges, both in
  // declaration order. A single incoming envelope is the arrival as is.
  std::size_t incoming = 0;
  const auto merge = [&](const Curve& c) {
    arrival_[i] = incoming++ == 0 ? c : minplus::add(arrival_[i], c);
  };
  for (std::size_t k = 0; k < dag_.entries.size(); ++k) {
    if (dag_.entries[k].to == i) merge(entry_curve_[k]);
  }
  for (std::size_t k = 0; k < dag_.edges.size(); ++k) {
    if (dag_.edges[k].to == i) merge(edge_curve_[k]);
  }

  // Normalized service curves: beta over the worst-case volume, gamma
  // over the best case (the most compression upstream).
  const double vol = load.vol_in;
  SC_ASSERT(vol > 0.0);
  vol_in_[i] = vol;
  vol_best_[i] = load.vol_best;
  const double rate_lo = load.rate.lo;
  const double rate_hi =
      basis_rate(node, policy_.max_service_basis).in_bytes_per_sec() /
      load.vol_best;
  // Job-ratio collection wait (paper, Section 3): a node that must collect
  // a block larger than the granularity of what reaches it waits
  // b_n / R_alpha_{n-1} before it can dispatch, R_alpha_{n-1} being the
  // sustained arrival clipped by every upstream guaranteed rate. (The
  // propagated arrival *envelope* is not used: a finite job caps it, and
  // after a few hops its burst can cover the whole job, which says nothing
  // about the pace at which a block fills.) A predecessor's effective
  // packet is smaller than its block_out when it filters.
  double incoming_block = std::numeric_limits<double>::infinity();
  for (const DagEdge& e : dag_.entries) {
    if (e.to == i) {
      incoming_block = std::min(incoming_block, source_.packet.in_bytes());
    }
  }
  for (const DagEdge& e : dag_.edges) {
    if (e.to == i) {
      const NodeSpec& prev = dag_.nodes[e.from];
      incoming_block = std::min(
          incoming_block, std::min(prev.block_out.in_bytes(),
                                   prev.block_in.in_bytes() * prev.volume.min));
    }
  }
  Duration wait = Duration::seconds(0);
  const double sustained = load.arrival.hi;
  if (node.aggregates && node.block_in.in_bytes() > incoming_block &&
      sustained > 0.0 && std::isfinite(sustained)) {
    // One upstream packet of slack for arrival-phase misalignment (the
    // block may start filling just after a packet boundary).
    wait = Duration::seconds((node.block_in.in_bytes() + incoming_block) /
                             vol / sustained);
  }
  wait_[i] = wait;
  const Duration latency = node.latency() + wait;
  // The node's output packetizer degrades the service curve by one output
  // block ([beta - l_max]^+) and leaves the maximum service curve alone.
  service_[i] = Curve::rate_latency(rate_lo, latency.in_seconds());
  const double out_block_norm =
      node.block_out.in_bytes() / (vol * node.volume.max);
  if (policy_.packetize) {
    service_[i] =
        packetize_service(service_[i], DataSize::bytes(out_block_norm));
  }
  max_service_[i] = policy_.max_service_latency
                        ? Curve::rate_latency(rate_hi, latency.in_seconds())
                        : Curve::rate(rate_hi);

  output_[i] = output_bound(arrival_[i], service_[i], max_service_[i]);

  // Outgoing edge envelopes: a fraction below 1 splits the output.
  for (std::size_t k = 0; k < dag_.edges.size(); ++k) {
    const DagEdge& e = dag_.edges[k];
    if (e.from != i) continue;
    if (e.fraction < 1.0) {
      edge_curve_[k] =
          output_[i].scale_value(e.fraction).plus_step(out_block_norm);
    } else {
      edge_curve_[k] = output_[i];
    }
  }
}

const Curve& DagModel::node_arrival(std::size_t i) const {
  util::require(i < arrival_.size(), "node index out of range");
  return arrival_[i];
}

const Curve& DagModel::node_service(std::size_t i) const {
  util::require(i < service_.size(), "node index out of range");
  return service_[i];
}

const Curve& DagModel::node_max_service(std::size_t i) const {
  util::require(i < max_service_.size(), "node index out of range");
  return max_service_[i];
}

const Curve& DagModel::node_output(std::size_t i) const {
  util::require(i < output_.size(), "node index out of range");
  return output_[i];
}

double DagModel::volume_in_worst(std::size_t i) const {
  util::require(i < vol_in_.size(), "node index out of range");
  return vol_in_[i];
}

double DagModel::volume_in_best(std::size_t i) const {
  util::require(i < vol_best_.size(), "node index out of range");
  return vol_best_[i];
}

Duration DagModel::aggregation_wait(std::size_t i) const {
  util::require(i < wait_.size(), "node index out of range");
  return wait_[i];
}

std::vector<NodeAnalysis> DagModel::per_node_analysis() const {
  std::vector<NodeAnalysis> out;
  out.reserve(dag_.nodes.size());
  for (std::size_t i = 0; i < dag_.nodes.size(); ++i) {
    NodeAnalysis a;
    a.name = dag_.nodes[i].name;
    a.load_regime = regime(arrival_[i], service_[i]);
    a.arrival_rate = DataRate::bytes_per_sec(arrival_[i].tail_slope());
    a.service_rate = DataRate::bytes_per_sec(service_[i].tail_slope());
    a.delay = delay_bound_for(i);
    a.backlog = backlog_bound_for(i);
    a.buffer_bytes = a.backlog * vol_in_[i];
    a.aggregation_wait = wait_[i];
    out.push_back(std::move(a));
  }
  return out;
}

util::Duration DagModel::delay_bound_for(std::size_t i) const {
  return netcalc::delay_bound(arrival_[i], service_[i]).value;
}

util::DataSize DagModel::backlog_bound_for(std::size_t i) const {
  return netcalc::backlog_bound(arrival_[i], service_[i]).value;
}

std::vector<DagPathAnalysis> DagModel::per_path_analysis() const {
  std::vector<DagPathAnalysis> result;
  for (const auto& path : dag_.paths()) {
    DagPathAnalysis pa;
    pa.nodes = path;

    // The flow of interest entering the path head: the entry envelope(s)
    // feeding it.
    Curve flow = Curve::zero();
    for (std::size_t k = 0; k < dag_.entries.size(); ++k) {
      if (dag_.entries[k].to == path.front()) {
        flow = minplus::add(flow, entry_curve_[k]);
      }
    }

    // Concatenate residual service along the path: at each node, subtract
    // the cross-traffic (incoming envelopes not contributed by the
    // previous path hop) from the node's service curve.
    Curve path_service = Curve::delta(0.0);
    bool valid = true;
    for (std::size_t hop = 0; hop < path.size(); ++hop) {
      const std::size_t i = path[hop];
      Curve cross = Curve::zero();
      for (std::size_t k = 0; k < dag_.entries.size(); ++k) {
        if (dag_.entries[k].to == i &&
            !(hop == 0)) {  // at the head, entries ARE the flow
          cross = minplus::add(cross, entry_curve_[k]);
        }
      }
      for (std::size_t k = 0; k < dag_.edges.size(); ++k) {
        const DagEdge& e = dag_.edges[k];
        if (e.to != i) continue;
        if (hop > 0 && e.from == path[hop - 1]) continue;  // the flow itself
        cross = minplus::add(cross, edge_curve_[k]);
      }
      Curve residual = service_[i];
      if (!cross.is_zero()) {
        try {
          residual = minplus::subtract_clamped(service_[i], cross);
        } catch (const util::PreconditionError&) {
          valid = false;
          break;
        }
      }
      pa.hop_residuals.push_back(residual);
      path_service = minplus::convolve(path_service, residual);
    }
    pa.residual_valid = valid;
    pa.delay = valid ? util::Duration::seconds(minplus::horizontal_deviation(
                           flow, path_service))
                     : util::Duration::infinite();
    if (valid) {
      pa.flow = std::move(flow);
      pa.path_service = std::move(path_service);
    } else {
      pa.hop_residuals.clear();
    }
    result.push_back(std::move(pa));
  }
  return result;
}

DelayReport worst_path_delay(const std::vector<DagPathAnalysis>& paths) {
  Duration worst = Duration::seconds(0);
  for (const DagPathAnalysis& p : paths) {
    worst = std::max(worst, p.delay);
  }
  return DelayReport::worst_case(worst);
}

std::vector<Duration> delay_bounds_by_head(
    const std::vector<DagPathAnalysis>& paths, std::size_t node_count) {
  std::vector<Duration> worst(node_count, Duration::seconds(0));
  for (const DagPathAnalysis& p : paths) {
    worst[p.nodes.front()] = std::max(worst[p.nodes.front()], p.delay);
  }
  return worst;
}

DelayReport DagModel::delay_bound() const {
  return worst_path_delay(per_path_analysis());
}

BacklogReport DagModel::backlog_bound() const {
  double total = 0.0;
  for (std::size_t i = 0; i < dag_.nodes.size(); ++i) {
    const double x = backlog_bound_for(i).in_bytes();
    if (x == std::numeric_limits<double>::infinity()) {
      return BacklogReport::worst_case(DataSize::infinite());
    }
    total += x;
  }
  return BacklogReport::worst_case(DataSize::bytes(total));
}

DelayReport worst_path_delay(const std::vector<DagPathAnalysis>& paths,
                             double epsilon) {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "delay_bound requires epsilon in (0, 1)");
  DelayReport worst =
      DelayReport::violation_prob(Duration::seconds(0), epsilon,
                                  BoundProvenance{BoundMethod::kDetClamp, 0.0});
  for (const DagPathAnalysis& p : paths) {
    DelayReport r;
    if (p.residual_valid) {
      r = netcalc::delay_bound(p.flow, p.path_service, epsilon);
    } else {
      r = DelayReport::violation_prob(
          Duration::infinite(), epsilon,
          BoundProvenance{BoundMethod::kChernoff, 0.0});
    }
    if (r.value > worst.value) worst = r;
  }
  worst.epsilon = epsilon;
  return worst;
}

DelayReport DagModel::delay_bound(double epsilon) const {
  return worst_path_delay(per_path_analysis(), epsilon);
}

BacklogReport DagModel::backlog_bound(double epsilon) const {
  util::require(epsilon > 0.0 && epsilon < 1.0,
                "backlog_bound requires epsilon in (0, 1)");
  // Union bound: each node at epsilon/n, so the summed statement holds
  // with probability >= 1 - epsilon.
  const double per_node =
      epsilon / static_cast<double>(dag_.nodes.size());
  double total = 0.0;
  BoundProvenance prov{BoundMethod::kDetClamp, 0.0};
  for (std::size_t i = 0; i < dag_.nodes.size(); ++i) {
    const BacklogReport r =
        netcalc::backlog_bound(arrival_[i], service_[i], per_node);
    if (!r.value.is_finite()) {
      return BacklogReport::violation_prob(DataSize::infinite(), epsilon,
                                           r.provenance);
    }
    if (r.provenance.method == BoundMethod::kChernoff) prov = r.provenance;
    total += r.value.in_bytes();
  }
  return BacklogReport::violation_prob(DataSize::bytes(total), epsilon, prov);
}

}  // namespace streamcalc::netcalc
