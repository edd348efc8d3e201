#include "netcalc/dag.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "minplus/deviation.hpp"
#include "minplus/operations.hpp"
#include "netcalc/bounds.hpp"
#include "netcalc/packetizer.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {

namespace {
using minplus::Curve;
using util::DataRate;
using util::DataSize;
using util::Duration;
}  // namespace

void DagSpec::validate() const {
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
    util::require(fed[i], "DagSpec node '" + nodes[i].name +
                              "' is unreachable from the entries");
    for (const DagEdge& e : edges) {
      if (e.from == i) fed[e.to] = true;
    }
  }
}

std::vector<std::size_t> DagSpec::topological_order() const {
  std::vector<std::size_t> indegree(nodes.size(), 0);
  for (const DagEdge& e : edges) ++indegree[e.to];
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<std::size_t> order;
  order.reserve(nodes.size());
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop();
    order.push_back(i);
    for (const DagEdge& e : edges) {
      if (e.from == i && --indegree[e.to] == 0) ready.push(e.to);
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
    : dag_(std::move(dag)), source_(source), policy_(policy) {
  dag_.validate();
  util::require(source_.rate > DataRate::bytes_per_sec(0),
                "DagModel requires a positive source rate");
  build();
}

void DagModel::build() {
  const std::size_t n = dag_.nodes.size();
  order_ = dag_.topological_order();
  arrival_.resize(n);
  service_.resize(n);
  max_service_.resize(n);
  output_.resize(n);
  edge_curve_.resize(dag_.edges.size());
  vol_in_.assign(n, 0.0);

  // Worst-case volume factors: entry edges carry `fraction` of the source
  // volume; graph edges carry fraction x the producer's output volume.
  std::vector<double> vol_out(n, 0.0);
  for (const DagEdge& e : dag_.entries) vol_in_[e.to] += e.fraction;
  for (std::size_t i : order_) {
    for (const DagEdge& e : dag_.edges) {
      if (e.to == i) {
        vol_in_[i] += e.fraction * vol_out[e.from];
      }
    }
    vol_out[i] = vol_in_[i] * dag_.nodes[i].volume.max;
  }

  // Per-entry envelopes: proportional splitters with block granularity.
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

  std::vector<bool> changed(n, false);
  for (std::size_t i : order_) build_node(i, changed);
}

void DagModel::build_node(std::size_t i, std::vector<bool>& changed) {
  const NodeSpec& node = dag_.nodes[i];
  // Merge incoming envelopes: entries first, then edges, both in
  // declaration order.
  Curve merged = Curve::zero();
  for (std::size_t k = 0; k < dag_.entries.size(); ++k) {
    if (dag_.entries[k].to == i) {
      merged = minplus::add(merged, entry_curve_[k]);
    }
  }
  for (std::size_t k = 0; k < dag_.edges.size(); ++k) {
    if (dag_.edges[k].to == i) {
      merged = minplus::add(merged, edge_curve_[k]);
    }
  }
  arrival_[i] = std::move(merged);

  // Normalized service curves.
  const double vol = vol_in_[i];
  SC_ASSERT(vol > 0.0);
  const double rate_lo =
      basis_rate(node, policy_.service_basis).in_bytes_per_sec() / vol;
  const double rate_hi =
      basis_rate(node, policy_.max_service_basis).in_bytes_per_sec() / vol;
  // Collection wait only when the node's block exceeds the granularity
  // of what reaches it (the chain model's b_n > b*_{n-1} condition).
  double incoming_block = std::numeric_limits<double>::infinity();
  for (const DagEdge& e : dag_.entries) {
    if (e.to == i) {
      incoming_block = std::min(incoming_block, source_.packet.in_bytes());
    }
  }
  for (const DagEdge& e : dag_.edges) {
    if (e.to == i) {
      const NodeSpec& prev = dag_.nodes[e.from];
      // Effective emitted packet: filters emit less than block_out.
      incoming_block = std::min(
          incoming_block, std::min(prev.block_out.in_bytes(),
                                   prev.block_in.in_bytes() * prev.volume.min));
    }
  }
  Duration latency = node.latency();
  if (node.aggregates && node.block_in.in_bytes() > incoming_block) {
    const double sustained = arrival_[i].tail_slope();
    if (sustained > 0.0 && std::isfinite(sustained)) {
      // One upstream packet of slack for arrival-phase misalignment.
      latency += Duration::seconds(
          (node.block_in.in_bytes() +
           (std::isfinite(incoming_block) ? incoming_block : 0.0)) /
          vol / sustained);
    }
  }
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

  // Outgoing edge envelopes; the change report stops an incremental
  // refresh at successors whose inputs came out unchanged.
  for (std::size_t k = 0; k < dag_.edges.size(); ++k) {
    if (dag_.edges[k].from == i) {
      Curve env = output_[i].scale_value(dag_.edges[k].fraction);
      if (dag_.edges[k].fraction < 1.0) {
        env = env.plus_step(out_block_norm);
      }
      if (!(edge_curve_[k] == env)) {
        edge_curve_[k] = std::move(env);
        changed[dag_.edges[k].to] = true;
      }
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

std::vector<DagNodeAnalysis> DagModel::per_node_analysis() const {
  std::vector<DagNodeAnalysis> out;
  out.reserve(dag_.nodes.size());
  for (std::size_t i = 0; i < dag_.nodes.size(); ++i) {
    DagNodeAnalysis a;
    a.name = dag_.nodes[i].name;
    a.load_regime = regime(arrival_[i], service_[i]);
    a.arrival_rate = DataRate::bytes_per_sec(arrival_[i].tail_slope());
    a.service_rate = DataRate::bytes_per_sec(service_[i].tail_slope());
    a.delay = delay_bound_for(i);
    a.backlog = backlog_bound_for(i);
    a.buffer_bytes = a.backlog * vol_in_[i];
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
