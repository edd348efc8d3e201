#include "netcalc/pipeline.hpp"

#include <algorithm>
#include <limits>

#include "minplus/operations.hpp"
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

PipelineModel::PipelineModel(std::vector<NodeSpec> nodes, SourceSpec source,
                             ModelPolicy policy)
    : PipelineModel(std::move(nodes), source, policy,
                    source_arrival(source)) {}

PipelineModel::PipelineModel(std::vector<NodeSpec> nodes, SourceSpec source,
                             ModelPolicy policy, Curve arrival)
    : nodes_(std::move(nodes)),
      source_(source),
      policy_(policy),
      arrival_(std::move(arrival)) {
  util::require(!nodes_.empty(), "PipelineModel requires at least one node");
  util::require(source_.rate > DataRate::bytes_per_sec(0),
                "PipelineModel requires a positive source rate");
  for (const NodeSpec& n : nodes_) n.validate();
  build();
}

void PipelineModel::build() {
  const std::size_t n = nodes_.size();
  vol_worst_.resize(n);
  vol_best_.resize(n);
  node_service_.resize(n);
  node_max_service_.resize(n);
  node_arrival_.resize(n + 1);
  aggregation_wait_.resize(n);

  // Volume normalization (Timcheck & Buhler): bytes at each node's input
  // per pipeline-input byte. "Worst" carries the most data downstream
  // (e.g. compression ratio 1.0); "best" the least (maximum compression).
  vol_worst_[0] = vol_best_[0] = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    vol_worst_[i] = vol_worst_[i - 1] * nodes_[i - 1].volume.max;
    vol_best_[i] = vol_best_[i - 1] * nodes_[i - 1].volume.min;
  }

  node_arrival_[0] = arrival_;
  total_latency_ = Duration::seconds(0);

  // Sustained flow rate reaching each node (input-normalized): the source
  // rate clipped by every upstream stage's guaranteed rate — the
  // R_alpha_{n-1} of the paper's aggregation recursion. (The propagated
  // arrival *envelope* is not used here: after a few hops its burst can
  // cover an entire finite job, which says nothing about the sustained
  // pace at which a collection block actually fills.)
  double sustained_norm = source_.rate.in_bytes_per_sec();

  for (std::size_t i = 0; i < n; ++i) {
    const NodeSpec& node = nodes_[i];

    // Job-ratio aggregation latency (paper, Section 3): a node that must
    // collect a block larger than its predecessor emits waits
    // b_n / R_alpha_{n-1} before it can dispatch. The predecessor's
    // *effective* packet can be smaller than its nominal block_out when it
    // filters (total emitted = block_in x volume), so compare against the
    // smaller of the two.
    DataSize prev_block = source_.packet;
    if (i > 0) {
      const NodeSpec& prev = nodes_[i - 1];
      prev_block = std::min(prev.block_out, prev.block_in * prev.volume.min);
    }
    Duration wait = Duration::seconds(0);
    if (node.aggregates && node.block_in > prev_block &&
        sustained_norm > 0.0 && std::isfinite(sustained_norm)) {
      // One upstream packet of slack covers arrival-phase misalignment
      // (the block may start filling just after a packet boundary).
      const double block_norm =
          (node.block_in + prev_block).in_bytes() / vol_worst_[i];
      wait = Duration::seconds(block_norm / sustained_norm);
    }
    aggregation_wait_[i] = wait;
    const Duration latency_eff = node.latency() + wait;
    total_latency_ += latency_eff;

    // Per-node service curves, normalized to pipeline-input bytes. The
    // node's output packetizer degrades the service curve by one output
    // block ([beta - l_max]^+) and leaves the maximum service curve alone.
    const double rate_lo =
        basis_rate(node, policy_.service_basis).in_bytes_per_sec() /
        vol_worst_[i];
    const double rate_hi =
        basis_rate(node, policy_.max_service_basis).in_bytes_per_sec() /
        vol_best_[i];
    node_service_[i] =
        Curve::rate_latency(rate_lo, latency_eff.in_seconds());
    if (policy_.packetize) {
      const double out_block_norm =
          node.block_out.in_bytes() / (vol_worst_[i] * node.volume.max);
      node_service_[i] = packetize_service(node_service_[i],
                                           DataSize::bytes(out_block_norm));
    }
    node_max_service_[i] =
        policy_.max_service_latency
            ? Curve::rate_latency(rate_hi, latency_eff.in_seconds())
            : Curve::rate(rate_hi);

    node_arrival_[i + 1] = output_bound(node_arrival_[i], node_service_[i],
                                        node_max_service_[i]);
    sustained_norm = std::min(sustained_norm, node_service_[i].tail_slope());
  }

  // End-to-end curves: concatenation pays bursts only once.
  service_ = node_service_[0];
  max_service_ = node_max_service_[0];
  for (std::size_t i = 1; i < n; ++i) {
    service_ = minplus::convolve(service_, node_service_[i]);
    max_service_ = minplus::convolve(max_service_, node_max_service_[i]);
  }
  output_ = output_bound(arrival_, service_, max_service_);
  guaranteed_ = minplus::convolve(arrival_, service_);
}

DelayReport PipelineModel::delay_bound() const {
  return netcalc::delay_bound(arrival_, service_);
}

BacklogReport PipelineModel::backlog_bound() const {
  return netcalc::backlog_bound(arrival_, service_);
}

DelayReport PipelineModel::delay_bound(double epsilon) const {
  return netcalc::delay_bound(arrival_, service_, epsilon);
}

BacklogReport PipelineModel::backlog_bound(double epsilon) const {
  return netcalc::backlog_bound(arrival_, service_, epsilon);
}

DelayReport PipelineModel::delay_bound(
    double epsilon, const stochcalc::Arrival& arrival) const {
  return netcalc::delay_bound(arrival, service_, epsilon);
}

BacklogReport PipelineModel::backlog_bound(
    double epsilon, const stochcalc::Arrival& arrival) const {
  return netcalc::backlog_bound(arrival, service_, epsilon);
}

ThroughputBounds PipelineModel::throughput_bounds(Duration horizon) const {
  ThroughputBounds b;
  b.lower = guaranteed_rate(guaranteed_, horizon);
  b.upper = std::min(limiting_rate(arrival_, horizon),
                     limiting_rate(max_service_, horizon));
  b.loose_upper = limiting_rate(output_, horizon);
  return b;
}

Regime PipelineModel::load_regime() const {
  return regime(arrival_, service_);
}

std::size_t PipelineModel::bottleneck() const {
  std::size_t best = 0;
  double best_rate = node_service_[0].tail_slope();
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const double r = node_service_[i].tail_slope();
    if (r < best_rate) {
      best_rate = r;
      best = i;
    }
  }
  return best;
}

std::vector<NodeAnalysis> PipelineModel::per_node_analysis() const {
  std::vector<NodeAnalysis> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeAnalysis a;
    a.name = nodes_[i].name;
    a.load_regime = regime(node_arrival_[i], node_service_[i]);
    a.arrival_rate =
        DataRate::bytes_per_sec(node_arrival_[i].tail_slope());
    a.service_rate =
        DataRate::bytes_per_sec(node_service_[i].tail_slope());
    a.delay = netcalc::delay_bound(node_arrival_[i], node_service_[i]).value;
    a.backlog =
        netcalc::backlog_bound(node_arrival_[i], node_service_[i]).value;
    a.buffer_bytes = a.backlog * vol_worst_[i];
    a.aggregation_wait = aggregation_wait_[i];
    out.push_back(std::move(a));
  }
  return out;
}

PipelineModel PipelineModel::subrange(std::size_t first,
                                      std::size_t count) const {
  util::require(first < nodes_.size() && count >= 1 &&
                    first + count <= nodes_.size(),
                "subrange out of bounds");
  std::vector<NodeSpec> sub(nodes_.begin() +
                                static_cast<std::ptrdiff_t>(first),
                            nodes_.begin() +
                                static_cast<std::ptrdiff_t>(first + count));
  // Convert the propagated arrival (normalized to the original pipeline
  // input) into the subrange's own input units.
  Curve arr = node_arrival_[first].scale_value(vol_worst_[first]);
  SourceSpec src;
  src.rate = DataRate::bytes_per_sec(arr.tail_slope());
  src.burst = DataSize::bytes(arr.value_right(0.0));
  // The subrange receives data in the upstream stage's output blocks;
  // keeping the granularity avoids a spurious aggregation wait at its
  // first node.
  src.packet = (first > 0) ? nodes_[first - 1].block_out : source_.packet;
  if (src.rate == DataRate::bytes_per_sec(0)) {
    // A finite-job arrival has zero tail rate; keep the spec meaningful.
    src.rate = source_.rate;
  }
  return PipelineModel(std::move(sub), src, policy_, std::move(arr));
}

const Curve& PipelineModel::node_service_curve(std::size_t i) const {
  util::require(i < node_service_.size(), "node index out of bounds");
  return node_service_[i];
}

const Curve& PipelineModel::node_arrival_curve(std::size_t i) const {
  util::require(i < node_arrival_.size(), "node index out of bounds");
  return node_arrival_[i];
}

const Curve& PipelineModel::node_max_service_curve(std::size_t i) const {
  util::require(i < node_max_service_.size(), "node index out of bounds");
  return node_max_service_[i];
}

double PipelineModel::volume_in_worst(std::size_t i) const {
  util::require(i < vol_worst_.size(), "node index out of bounds");
  return vol_worst_[i];
}

double PipelineModel::volume_in_best(std::size_t i) const {
  util::require(i < vol_best_.size(), "node index out of bounds");
  return vol_best_[i];
}

}  // namespace streamcalc::netcalc
