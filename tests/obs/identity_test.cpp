// Instrumentation must be passive: running the same analysis with the
// tracer recording and a sink installed has to produce bit-identical
// bounds to the untraced run. This is the property that lets --stats and
// --trace be turned on in production without changing any result.
#include <gtest/gtest.h>

#include <vector>

#include "netcalc/node.hpp"
#include "netcalc/pipeline.hpp"
#include "obs/obs.hpp"

namespace streamcalc {
namespace {

using netcalc::NodeKind;
using netcalc::NodeSpec;
using netcalc::PipelineModel;
using netcalc::SourceSpec;
using util::DataRate;
using util::DataSize;
using util::Duration;

struct Bounds {
  double delay;
  double backlog;
  double total_latency;
};

Bounds analyze_once() {
  std::vector<NodeSpec> nodes;
  nodes.push_back(NodeSpec::from_rates(
      "decode", NodeKind::kCompute, DataSize::kib(64),
      DataRate::mib_per_sec(150), DataRate::mib_per_sec(160),
      DataRate::mib_per_sec(170)));
  nodes.push_back(NodeSpec::from_rates(
      "filter", NodeKind::kCompute, DataSize::kib(64),
      DataRate::mib_per_sec(90), DataRate::mib_per_sec(100),
      DataRate::mib_per_sec(110)));
  SourceSpec source;
  source.rate = DataRate::mib_per_sec(60);
  source.burst = DataSize::kib(64);
  const PipelineModel model(std::move(nodes), source);
  return Bounds{model.delay_bound().value.in_seconds(),
                model.backlog_bound().value.in_bytes(),
                model.total_latency().in_seconds()};
}

TEST(ObsIdentityTest, TracedAnalysisIsBitIdenticalToUntraced) {
  obs::set_enabled(true);
  obs::Tracer::global().stop();
  obs::Tracer::global().clear();
  const Bounds untraced = analyze_once();

  obs::CollectingSink sink;
  obs::Sink* previous = obs::set_sink(&sink);
  obs::Tracer::global().start();
  const Bounds traced = analyze_once();
  obs::Tracer::global().stop();
  obs::set_sink(previous);

  // Bitwise equality, not EXPECT_NEAR: instrumentation may not perturb
  // the arithmetic at all.
  EXPECT_EQ(untraced.delay, traced.delay);
  EXPECT_EQ(untraced.backlog, traced.backlog);
  EXPECT_EQ(untraced.total_latency, traced.total_latency);

  // And the traced run did actually record the min-plus work.
#if SC_OBS_ENABLED
  EXPECT_GT(sink.metric_total("minplus.convolve.calls"), 0.0);
  EXPECT_FALSE(obs::Tracer::global().snapshot().empty());
#endif
  obs::Tracer::global().clear();
}

TEST(ObsIdentityTest, RuntimeOffAnalysisIsBitIdenticalToo) {
  obs::set_enabled(true);
  const Bounds on = analyze_once();
  obs::set_enabled(false);
  const Bounds off = analyze_once();
  obs::set_enabled(true);
  EXPECT_EQ(on.delay, off.delay);
  EXPECT_EQ(on.backlog, off.backlog);
  EXPECT_EQ(on.total_latency, off.total_latency);
}

}  // namespace
}  // namespace streamcalc
