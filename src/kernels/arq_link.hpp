// A reliable sliding-window link simulator — the measurable stand-in for
// the paper's FPGA TCP/CMAC network stack (EasyNet [15], TCP demo [24]).
//
// The link is modeled at packet granularity on a small event loop of its
// own (arq_link.cpp): a sender with a bounded in-flight window, per-packet
// serialization at the line rate, one-way propagation, i.i.d. packet loss
// with timeout retransmission, and cumulative acknowledgements releasing
// window slots.
// measure_arq_link() runs the simulation and summarizes the *effective*
// throughput spread (per-interval min/avg/max) and per-packet latencies —
// exactly the isolated measurement the paper would take of its network
// stage — and converts them into a netcalc::NodeSpec.
#pragma once

#include <cstdint>
#include <string>

#include "netcalc/node.hpp"
#include "util/units.hpp"

namespace streamcalc::kernels {

/// Link and protocol parameters.
struct ArqLinkParams {
  util::DataRate bandwidth;          ///< line (serialization) rate
  util::Duration propagation;        ///< one-way propagation delay
  util::DataSize packet;             ///< payload per packet
  std::size_t window = 16;           ///< max packets in flight
  double loss_rate = 0.0;            ///< i.i.d. per-packet loss probability
  util::Duration retransmit_timeout; ///< zero = 2 x RTT
  util::Duration measure_time;       ///< simulated measurement length
  std::uint64_t seed = 1;
};

/// Measurement outcome.
struct ArqLinkMeasurement {
  util::DataRate throughput_min;  ///< slowest measurement interval
  util::DataRate throughput_avg;  ///< overall goodput
  util::DataRate throughput_max;  ///< fastest measurement interval
  util::Duration latency_min;     ///< fastest packet delivery
  util::Duration latency_avg;
  util::Duration latency_max;     ///< slowest (includes retransmissions)
  util::DataSize packet;          ///< packet size measured with
  std::uint64_t packets_delivered = 0;
  std::uint64_t retransmissions = 0;

  /// Link NodeSpec for the pipeline models (cut-through, with the observed
  /// rate spread and the minimum latency as the pipeline-fill override).
  netcalc::NodeSpec to_node(std::string name, netcalc::NodeKind kind) const;
};

/// Simulates the link under saturating load and measures it. Requires
/// positive bandwidth/packet/measure_time, window >= 1, loss in [0, 1).
ArqLinkMeasurement measure_arq_link(const ArqLinkParams& params);

}  // namespace streamcalc::kernels
