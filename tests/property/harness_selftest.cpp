// Self-test of the verification harness: a harness that cannot catch a
// planted bug is worse than no harness. These tests run the fuzz driver
// against a deliberately broken convolution (the classic "interpolate
// between breakpoint candidates" shortcut, which misses interior pieces
// and jumps) and require that it is falsified, shrunk to a smaller
// counterexample, and reported with a replayable seed. They also pin the
// diagnostic quality of curve/node validation errors and the environment
// scaling of the case budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "minplus/operations.hpp"
#include "netcalc/node.hpp"
#include "testing/compare.hpp"
#include "testing/property.hpp"
#include "testing/shrink.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace streamcalc::testing {
namespace {

using minplus::Curve;
using minplus::Segment;

/// Deliberately broken min-plus convolution: evaluates the true infimum
/// only at the Minkowski-sum breakpoints and connects them with straight
/// lines — the shortcut a naive implementation takes, wrong whenever the
/// true result bends or jumps between candidates.
Curve broken_convolve(const Curve& f, const Curve& g) {
  std::vector<double> xs{0.0};
  for (const Segment& a : f.segments()) {
    for (const Segment& b : g.segments()) {
      if (std::isfinite(a.x + b.x)) xs.push_back(a.x + b.x);
    }
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  const Curve real = convolve(f, g);
  std::vector<Segment> segs;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double v = real.value(xs[i]);
    if (v == std::numeric_limits<double>::infinity()) {
      segs.push_back(Segment{xs[i], v, v, 0.0});
      break;
    }
    double slope = 0.0;
    if (i + 1 < xs.size()) {
      const double vn = real.value(xs[i + 1]);
      if (std::isfinite(vn)) slope = (vn - v) / (xs[i + 1] - xs[i]);
    } else {
      slope = f.segments().back().slope + g.segments().back().slope;
    }
    segs.push_back(Segment{xs[i], v, v, std::max(0.0, slope)});
  }
  return Curve(std::move(segs));
}

PropertyFn matches_real_convolve() {
  return [](const std::vector<Curve>& c) -> std::string {
    const Curve real = convolve(c[0], c[1]);
    const Curve fake = broken_convolve(c[0], c[1]);
    if (const auto gap = first_gap(real, fake, 1e-7, 1e-9)) {
      return "broken convolve diverges: " + gap_str(*gap);
    }
    return "";
  };
}

TEST(HarnessSelfTest, PlantedConvolveBugIsCaught) {
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xf001};
  spec.cases = 2000;  // fixed: the self-test must not weaken with the env
  const auto failure = fuzz(spec, matches_real_convolve());
  ASSERT_TRUE(failure.has_value())
      << "the fuzzer failed to distinguish a linear-interpolation "
         "convolution from the exact one in 2000 cases";
  // The report must carry everything needed to replay the failure.
  EXPECT_EQ(failure->seed, 0xf001u);
  EXPECT_GE(failure->case_index, 0);
  EXPECT_FALSE(failure->message.empty());
  const std::string report = failure->report();
  EXPECT_NE(report.find("seed="), std::string::npos) << report;
  EXPECT_NE(report.find("case="), std::string::npos) << report;
}

TEST(HarnessSelfTest, CounterexamplesShrinkAndStillFail) {
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xf002};
  spec.cases = 2000;
  const auto property = matches_real_convolve();
  const auto failure = fuzz(spec, property);
  ASSERT_TRUE(failure.has_value());
  // The shrunk tuple must still falsify the property...
  EXPECT_FALSE(property(failure->shrunk).empty());
  // ...and must be no larger than the original in total segment count.
  std::size_t original = 0, shrunk = 0;
  for (const Curve& c : failure->original) original += c.segments().size();
  for (const Curve& c : failure->shrunk) shrunk += c.segments().size();
  EXPECT_LE(shrunk, original) << failure->report();
}

TEST(HarnessSelfTest, CorrectOperatorSurvivesTheSameBudget) {
  // Sanity: the property template itself must pass on the real operator
  // (otherwise the planted-bug catch proves nothing).
  FuzzSpec spec{{CurveKind::kAny, CurveKind::kAny}, {}, 0xf003};
  spec.cases = scaled_cases(300);
  const auto failure =
      fuzz(spec, [](const std::vector<Curve>& c) -> std::string {
        const Curve a = convolve(c[0], c[1]);
        const Curve b = convolve(c[1], c[0]);
        if (const auto gap = first_gap(a, b, 1e-7, 1e-9)) {
          return gap_str(*gap);
        }
        return "";
      });
  EXPECT_FALSE(failure.has_value()) << failure->report();
}

TEST(HarnessSelfTest, ThrowingPropertyIsReportedAsFailure) {
  FuzzSpec spec{{CurveKind::kAny}, {}, 0xf004};
  spec.cases = 1;
  const auto failure = fuzz(spec, [](const std::vector<Curve>&) -> std::string {
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->message.find("boom"), std::string::npos);
}

TEST(HarnessSelfTest, ShrinkCandidatesAreValidAndDifferent) {
  CurveGenerator gen({}, 0xf005);
  for (int i = 0; i < 200; ++i) {
    const Curve c = gen.next(CurveKind::kAny);
    for (const Curve& candidate : shrink_candidates(c)) {
      EXPECT_FALSE(candidate == c);
      // Valid by construction: reconstruct to prove the invariants hold.
      EXPECT_NO_THROW(Curve(
          std::vector<Segment>(candidate.segments())));
    }
  }
}

TEST(HarnessSelfTest, CurveValidationNamesThePieceAndItsValues) {
  // Satellite contract: a rejected curve pinpoints the offending piece
  // index and reproduces its point values in the message.
  try {
    Curve(std::vector<Segment>{Segment{0.0, 0.0, 0.0, 1.0},
                               Segment{1.0, 5.0, 0.25, 1.0}});
    FAIL() << "downward jump was accepted";
  } catch (const util::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("piece 1 of 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("value_at=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("value_after=0.25"), std::string::npos) << msg;
  }
}

TEST(HarnessSelfTest, NodeValidationReportsFieldValues) {
  netcalc::NodeSpec bad;
  bad.name = "encrypt";
  bad.block_in = util::DataSize::bytes(1024);
  bad.block_out = util::DataSize::bytes(1024);
  bad.time_min = util::Duration::seconds(2e-3);
  bad.time_max = util::Duration::seconds(1e-3);  // < time_min
  try {
    bad.validate();
    FAIL() << "time_max < time_min was accepted";
  } catch (const util::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("encrypt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("time_min=0.002"), std::string::npos) << msg;
    EXPECT_NE(msg.find("time_max=0.001"), std::string::npos) << msg;
  }
}

TEST(HarnessSelfTest, CaseBudgetScalesWithEnvironment) {
  // scaled_cases keys off STREAMCALC_FUZZ_CASES (default 500). Restore the
  // previous value to avoid leaking into sibling tests.
  const auto prev = util::env_raw("STREAMCALC_FUZZ_CASES");
  setenv("STREAMCALC_FUZZ_CASES", "1000", 1);
  EXPECT_EQ(base_cases(), 1000);
  EXPECT_EQ(scaled_cases(500), 1000);
  EXPECT_EQ(scaled_cases(150), 300);
  setenv("STREAMCALC_FUZZ_CASES", "50", 1);
  EXPECT_EQ(scaled_cases(500), 50);
  EXPECT_GE(scaled_cases(1), 1);  // never drops to zero
  if (prev) {
    setenv("STREAMCALC_FUZZ_CASES", prev->c_str(), 1);
  } else {
    unsetenv("STREAMCALC_FUZZ_CASES");
  }
}

}  // namespace
}  // namespace streamcalc::testing
