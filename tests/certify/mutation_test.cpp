// Mutation suite (DESIGN.md §9): the checker must accept every unmutated
// golden paper bound (BLAST Section 4 / Table 1 pipeline, BITW Section 5 /
// Tables 2-3 pipeline) and reject 100% of planted mutations:
//
//   * claimed bound nudged +-1 ulp (tightness: the claim must be the
//     canonical upward rounding of the exact supremum),
//   * dropped witness,
//   * wrong tail slope in the concatenated service provenance,
//   * off-by-one breakpoint in the service curve.
//
// Every mutation is checked twice: once by check_certificate from an empty
// table, and once in the table the model's certificates were emitted into,
// by check_certificates over all of them, as certify_pipeline checks. The
// second mode reads the emitter's cached suprema and derivations, so it
// shows that the caches never stand in for an audit.
//
// A mutation that produces a structurally invalid curve counts as rejected
// too: minplus::Curve's constructor is the checker's front line, and
// check_certificate re-validates the same invariants in exact arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "apps/bitw.hpp"
#include "apps/blast.hpp"
#include "certify/certificate.hpp"
#include "certify/checker.hpp"
#include "certify/exact.hpp"
#include "certify/postflight.hpp"
#include "minplus/curve.hpp"
#include "netcalc/pipeline.hpp"

namespace streamcalc::certify {
namespace {

using minplus::Curve;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The golden models' certificates, one group per model.
std::vector<std::vector<BoundCertificate>> golden_groups() {
  const netcalc::PipelineModel models[] = {
      {apps::blast::nodes(), apps::blast::job_source(),
       apps::blast::policy()},
      {apps::bitw::nodes(), apps::bitw::delay_study_source(),
       apps::bitw::policy()},
      {apps::bitw::nodes(), apps::bitw::throttled_source(),
       apps::bitw::policy()},
  };
  std::vector<std::vector<BoundCertificate>> groups;
  for (const netcalc::PipelineModel& model : models) {
    groups.push_back(emit_pipeline_certificates(model));
  }
  return groups;
}

/// `group` emitted again into `table`: the same certificates, with their
/// exact curves and suprema left in the table, as certify_pipeline leaves
/// them for its checker.
std::vector<BoundCertificate> emit_into(
    ExactCurveTable& table, const std::vector<BoundCertificate>& group) {
  std::vector<BoundCertificate> certs;
  for (const BoundCertificate& c : group) {
    certs.push_back(make_certificate(table, c.kind, c.context, c.arrival,
                                     c.service, c.kernel_value,
                                     c.components));
  }
  return certs;
}

enum class Mode { kFreshTable, kSharedTable };
constexpr Mode kModes[] = {Mode::kFreshTable, Mode::kSharedTable};

const char* to_string(Mode mode) {
  return mode == Mode::kFreshTable ? "fresh table" : "shared table";
}

/// True when the checker rejects `mutate` planted in group[i]. A mutation
/// the curve layer itself refuses to represent is rejected by
/// construction.
template <typename Mutate>
bool rejected(const std::vector<BoundCertificate>& group, std::size_t i,
              Mode mode, const Mutate& mutate) {
  if (mode == Mode::kFreshTable) {
    BoundCertificate m = group[i];
    try {
      mutate(m);
    } catch (const std::exception&) {
      return true;
    }
    return !check_certificate(m).clean();
  }
  ExactCurveTable table;
  std::vector<BoundCertificate> certs = emit_into(table, group);
  try {
    mutate(certs[i]);
  } catch (const std::exception&) {
    return true;
  }
  return !check_certificates(certs, table).clean();
}

/// Plants `mutate` in every golden certificate `applies` to, in both
/// modes, and expects each plant rejected: a 100% kill rate per mode.
template <typename Applies, typename Mutate>
void expect_all_rejected(const Applies& applies, const Mutate& mutate,
                         const std::string& what) {
  const auto groups = golden_groups();
  for (const Mode mode : kModes) {
    int planted = 0;
    for (const auto& group : groups) {
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (!applies(group[i])) continue;
        ++planted;
        EXPECT_TRUE(rejected(group, i, mode, mutate))
            << group[i].describe() << " " << what << " (" << to_string(mode)
            << ")";
      }
    }
    EXPECT_GT(planted, 0) << what << " (" << to_string(mode) << ")";
  }
}

TEST(MutationSuite, GoldenPaperBoundsAllCertify) {
  for (const auto& group : golden_groups()) {
    ASSERT_FALSE(group.empty());
    for (const auto& cert : group) {
      const auto r = check_certificate(cert);
      EXPECT_TRUE(r.clean()) << cert.describe() << "\n" << r.render("golden");
    }
    ExactCurveTable table;
    const auto r = check_certificates(emit_into(table, group), table);
    EXPECT_TRUE(r.clean()) << r.render("golden, shared table");
  }
}

TEST(MutationSuite, UlpPerturbationsAllRejected) {
  for (const bool up : {true, false}) {
    expect_all_rejected(
        [](const BoundCertificate& c) { return std::isfinite(c.claimed); },
        [up](BoundCertificate& m) {
          m.claimed = std::nextafter(m.claimed, up ? kInf : -kInf);
        },
        up ? "+1 ulp" : "-1 ulp");
  }
}

TEST(MutationSuite, DroppedWitnessAllRejected) {
  expect_all_rejected(
      [](const BoundCertificate& c) { return c.has_witness; },
      [](BoundCertificate& m) { m.has_witness = false; }, "no witness");
}

TEST(MutationSuite, WrongTailSlopeAllRejected) {
  // Corrupt the concatenated service's tail slope: the checker must notice
  // that the tail no longer equals the minimum of the component tails (or
  // that the inflated curve escapes its components).
  for (const double factor : {1.5, 0.5}) {
    std::string what = "tail x";
    what += std::to_string(factor);
    expect_all_rejected(
        [](const BoundCertificate& c) { return !c.components.empty(); },
        [factor](BoundCertificate& m) {
          auto segs = m.service.segments();
          segs.back().slope *= factor;
          m.service = Curve(std::move(segs));
        },
        what);
  }
}

TEST(MutationSuite, OffByOneBreakpointAllRejected) {
  // Pull the service's first positive breakpoint (the latency knee) back
  // to the midpoint of its segment: the service curve claims to start
  // serving a half-latency early, so the true deviation shrinks and the
  // recorded claim is no longer its canonical rounding.
  expect_all_rejected(
      [](const BoundCertificate& c) {
        // A zero bound cannot shrink further, so the early-service
        // mutation would be unobservable (and the certificate vacuously
        // correct).
        return c.service.segments().size() >= 2 && std::isfinite(c.claimed) &&
               c.claimed > 0.0;
      },
      [](BoundCertificate& m) {
        auto segs = m.service.segments();
        segs[1].x = (segs[0].x + segs[1].x) / 2.0;
        m.service = Curve(std::move(segs));
      },
      "early knee");
}

}  // namespace
}  // namespace streamcalc::certify
