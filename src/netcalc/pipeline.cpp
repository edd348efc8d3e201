#include "netcalc/pipeline.hpp"

#include <algorithm>

#include "minplus/operations.hpp"
#include "util/error.hpp"

namespace streamcalc::netcalc {

namespace {
using minplus::Curve;
using util::DataRate;
using util::DataSize;
using util::Duration;
}  // namespace

PipelineModel::PipelineModel(std::vector<NodeSpec> nodes, SourceSpec source,
                             ModelPolicy policy)
    : PipelineModel(std::move(nodes), source, policy,
                    source_arrival(source)) {}

PipelineModel::PipelineModel(std::vector<NodeSpec> nodes, SourceSpec source,
                             ModelPolicy policy, Curve arrival)
    : model_(DagSpec::chain(std::move(nodes)), source, policy, {arrival},
             {source.rate.in_bytes_per_sec()}),
      arrival_(std::move(arrival)) {
  build();
}

void PipelineModel::build() {
  // End-to-end curves: concatenation pays bursts only once, and T^tot sums
  // every node's latency with its collection wait.
  service_ = model_.node_service(0);
  max_service_ = model_.node_max_service(0);
  total_latency_ = Duration::seconds(0);
  for (std::size_t i = 0; i < nodes().size(); ++i) {
    if (i > 0) {
      service_ = minplus::convolve(service_, model_.node_service(i));
      max_service_ =
          minplus::convolve(max_service_, model_.node_max_service(i));
    }
    total_latency_ += nodes()[i].latency() + model_.aggregation_wait(i);
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
  double best_rate = model_.node_service(0).tail_slope();
  for (std::size_t i = 1; i < nodes().size(); ++i) {
    const double r = model_.node_service(i).tail_slope();
    if (r < best_rate) {
      best_rate = r;
      best = i;
    }
  }
  return best;
}

PipelineModel PipelineModel::subrange(std::size_t first,
                                      std::size_t count) const {
  const std::vector<NodeSpec>& all = nodes();
  util::require(first < all.size() && count >= 1 &&
                    first + count <= all.size(),
                "subrange out of bounds");
  std::vector<NodeSpec> sub(
      all.begin() + static_cast<std::ptrdiff_t>(first),
      all.begin() + static_cast<std::ptrdiff_t>(first + count));
  // Convert the propagated arrival (normalized to the original pipeline
  // input) into the subrange's own input units.
  Curve arr = model_.node_arrival(first).scale_value(
      model_.volume_in_worst(first));
  SourceSpec src;
  src.rate = DataRate::bytes_per_sec(arr.tail_slope());
  src.burst = DataSize::bytes(arr.value_right(0.0));
  // The subrange receives data in the upstream stage's output blocks;
  // keeping the granularity avoids a spurious aggregation wait at its
  // first node.
  src.packet = (first > 0) ? all[first - 1].block_out : source().packet;
  if (src.rate == DataRate::bytes_per_sec(0)) {
    // A finite-job arrival has zero tail rate; keep the spec meaningful.
    src.rate = source().rate;
  }
  return PipelineModel(std::move(sub), src, model_.policy(), std::move(arr));
}

const Curve& PipelineModel::node_arrival_curve(std::size_t i) const {
  util::require(i <= nodes().size(), "node index out of bounds");
  return i < nodes().size() ? model_.node_arrival(i)
                            : model_.node_output(i - 1);
}

}  // namespace streamcalc::netcalc
