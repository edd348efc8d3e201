#include "netcalc/node.hpp"

#include "util/error.hpp"
#include "util/format.hpp"

namespace streamcalc::netcalc {

const char* to_string(NodeKind k) {
  switch (k) {
    case NodeKind::kCompute:
      return "compute";
    case NodeKind::kNetworkLink:
      return "network";
    case NodeKind::kPcieLink:
      return "pcie";
  }
  return "?";
}

NodeSpec NodeSpec::compute(std::string name, util::DataSize block_in,
                           util::DataSize block_out, util::Duration time_min,
                           util::Duration time_max) {
  NodeSpec n;
  n.name = std::move(name);
  n.kind = NodeKind::kCompute;
  n.block_in = block_in;
  n.block_out = block_out;
  n.time_min = time_min;
  n.time_max = time_max;
  n.validate();
  return n;
}

NodeSpec NodeSpec::link(std::string name, NodeKind kind,
                        util::DataRate bandwidth, util::DataSize packet,
                        util::Duration propagation) {
  util::require(bandwidth > util::DataRate::bytes_per_sec(0),
                "link bandwidth must be positive");
  NodeSpec n;
  n.name = std::move(name);
  n.kind = kind;
  n.block_in = packet;
  n.block_out = packet;
  const util::Duration serialization = packet / bandwidth;
  n.time_min = serialization + propagation;
  n.time_max = serialization + propagation;
  n.aggregates = false;
  n.validate();
  return n;
}

NodeSpec NodeSpec::from_rates(std::string name, NodeKind kind,
                              util::DataSize block, util::DataRate rate_min,
                              util::DataRate rate_avg,
                              util::DataRate rate_max) {
  util::require(rate_min > util::DataRate::bytes_per_sec(0) &&
                    rate_min <= rate_avg && rate_avg <= rate_max,
                "from_rates requires 0 < min <= avg <= max");
  NodeSpec n;
  n.name = std::move(name);
  n.kind = kind;
  n.block_in = block;
  n.block_out = block;
  n.time_min = block / rate_max;
  n.time_avg = block / rate_avg;
  n.time_max = block / rate_min;
  n.validate();
  return n;
}

double NodeSpec::job_ratio() const {
  return block_in.in_bytes() / block_out.in_bytes();
}

util::DataRate NodeSpec::rate_min() const { return block_in / time_max; }

util::DataRate NodeSpec::rate_avg() const {
  return block_in / effective_time_avg();
}

util::DataRate NodeSpec::rate_max() const { return block_in / time_min; }

util::DataRate NodeSpec::effective_isolated_rate() const {
  return rate_isolated > util::DataRate::bytes_per_sec(0) ? rate_isolated
                                                          : rate_avg();
}

util::Duration NodeSpec::effective_time_avg() const {
  return time_avg > util::Duration::seconds(0) ? time_avg
                                               : (time_min + time_max) / 2.0;
}

// The messages format every offending value, so they are built only on
// failure: validate() runs on every model, lint and simulation call.
void NodeSpec::validate() const {
  const auto fail = [](const std::string& message) {
    throw util::PreconditionError(message);
  };
  const auto num = [](double v) { return util::format_significant(v, 17); };
  util::require(!name.empty(), "node name must not be empty");
  if (!(block_in > util::DataSize::bytes(0) && block_in.is_finite())) {
    fail("node '" + name + "': block_in must be positive and finite "
         "(block_in=" + num(block_in.in_bytes()) + " B)");
  }
  if (!(block_out > util::DataSize::bytes(0) && block_out.is_finite())) {
    fail("node '" + name + "': block_out must be positive and finite "
         "(block_out=" + num(block_out.in_bytes()) + " B)");
  }
  if (!(time_min > util::Duration::seconds(0) && time_min.is_finite())) {
    fail("node '" + name + "': time_min must be positive and finite "
         "(time_min=" + num(time_min.in_seconds()) + " s)");
  }
  if (!(time_max >= time_min && time_max.is_finite())) {
    fail("node '" + name + "': time_max must be >= time_min (time_min=" +
         num(time_min.in_seconds()) + " s, time_max=" +
         num(time_max.in_seconds()) + " s)");
  }
  if (time_avg > util::Duration::seconds(0) &&
      !(time_avg >= time_min && time_avg <= time_max)) {
    fail("node '" + name +
         "': time_avg must lie within [time_min, time_max] (time_avg=" +
         num(time_avg.in_seconds()) + " s, time_min=" +
         num(time_min.in_seconds()) + " s, time_max=" +
         num(time_max.in_seconds()) + " s)");
  }
  if (!(volume.min > 0.0 && volume.min <= volume.avg &&
        volume.avg <= volume.max)) {
    fail("node '" + name + "': volume ratios must satisfy "
         "0 < min <= avg <= max (min=" + num(volume.min) + ", avg=" +
         num(volume.avg) + ", max=" + num(volume.max) + ")");
  }
}

}  // namespace streamcalc::netcalc
