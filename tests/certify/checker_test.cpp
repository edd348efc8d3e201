// Unit tests for certificate emission (make_certificate) and the
// independent checker (check_certificate): sound certificates are accepted,
// and each NC6xx failure mode trips on a targeted perturbation.
#include "certify/checker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "certify/certificate.hpp"
#include "certify/exact.hpp"
#include "minplus/curve.hpp"
#include "minplus/deviation.hpp"

namespace streamcalc::certify {
namespace {

using minplus::Curve;

constexpr double kInf = std::numeric_limits<double>::infinity();

// alpha = 50 + 100 t against beta = 200 (t - 0.5)^+: delay = 0.75 s,
// backlog = 100 — exactly representable, so the round-trip is crisp.
Curve alpha() { return Curve::affine(100.0, 50.0); }
Curve beta() { return Curve::rate_latency(200.0, 0.5); }

BoundCertificate golden_delay() {
  return make_certificate(BoundKind::kDelay, "test", alpha(), beta(),
                          minplus::horizontal_deviation(alpha(), beta()));
}

BoundCertificate golden_backlog() {
  return make_certificate(BoundKind::kBacklog, "test", alpha(), beta(),
                          minplus::vertical_deviation(alpha(), beta()));
}

TEST(CheckerTest, AcceptsSoundDelayAndBacklogCertificates) {
  const auto d = check_certificate(golden_delay());
  EXPECT_TRUE(d.clean()) << d.render("delay");
  const auto b = check_certificate(golden_backlog());
  EXPECT_TRUE(b.clean()) << b.render("backlog");
  EXPECT_EQ(golden_delay().claimed, 0.75);
  EXPECT_EQ(golden_backlog().claimed, 100.0);
  EXPECT_TRUE(golden_delay().has_witness);
}

TEST(CheckerTest, AcceptsDivergentCertificates) {
  const Curve fast = Curve::affine(300.0, 10.0);
  const auto cert = make_certificate(BoundKind::kDelay, "overload", fast,
                                     beta(), kInf);
  EXPECT_EQ(cert.claimed, kInf);
  EXPECT_FALSE(cert.has_witness);
  const auto r = check_certificate(cert);
  EXPECT_TRUE(r.clean()) << r.render("overload");
}

TEST(CheckerTest, NC601UnderclaimedBoundRejected) {
  auto cert = golden_delay();
  cert.claimed = 0.7;  // below the exact supremum 0.75
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC601")) << r.render("underclaim");
}

TEST(CheckerTest, NC601FalseDivergenceClaimRejected) {
  auto cert = golden_delay();
  cert.claimed = kInf;  // the exact deviation is finite
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC601")) << r.render("false-divergence");
}

TEST(CheckerTest, NC603UlpPerturbationsRejectedBothDirections) {
  for (const bool up : {true, false}) {
    auto cert = golden_backlog();
    cert.claimed = std::nextafter(cert.claimed, up ? kInf : -kInf);
    const auto r = check_certificate(cert);
    EXPECT_FALSE(r.clean()) << (up ? "+1 ulp" : "-1 ulp");
    // +1 ulp still dominates but is no longer the canonical rounding
    // (NC603); -1 ulp undercuts the supremum (NC601).
    EXPECT_TRUE(r.has_code(up ? "NC603" : "NC601"))
        << (up ? "+1 ulp" : "-1 ulp") << "\n"
        << r.render("ulp");
  }
}

TEST(CheckerTest, NC603DroppedWitnessRejected) {
  auto cert = golden_delay();
  cert.has_witness = false;
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC603")) << r.render("no-witness");
}

TEST(CheckerTest, NC603WitnessAwayFromSupremumRejected) {
  auto cert = golden_backlog();
  cert.witness_time = 0.1;  // the vertical deviation peaks at t = 0.5
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC603")) << r.render("bad-witness");
}

TEST(CheckerTest, NC602NonDominatedConcatenationRejected) {
  // Claim the e2e service rate_latency(150, 0.1) was concatenated from a
  // single component rate_latency(100, 0.2): the "end-to-end" curve
  // exceeds its component, which concatenation can never do.
  auto cert = make_certificate(
      BoundKind::kDelay, "e2e", alpha(), Curve::rate_latency(150.0, 0.1),
      minplus::horizontal_deviation(alpha(),
                                    Curve::rate_latency(150.0, 0.1)),
      {Curve::rate_latency(100.0, 0.2)});
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC602")) << r.render("non-dominated");
}

TEST(CheckerTest, NC602UnderAccumulatedLatencyRejected) {
  // Two components with latency 0.1 each must concatenate to latency >=
  // 0.2; an e2e curve that starts serving at 0.1 skipped one stage's wait.
  const Curve e2e = Curve::rate_latency(100.0, 0.1);
  auto cert = make_certificate(
      BoundKind::kDelay, "e2e", alpha(), e2e,
      minplus::horizontal_deviation(alpha(), e2e),
      {Curve::rate_latency(100.0, 0.1), Curve::rate_latency(200.0, 0.1)});
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC602")) << r.render("latency");
}

TEST(CheckerTest, NC602NonCausalComponentRejected) {
  // A component that is positive at t = 0 promises output before input.
  const Curve e2e = Curve::rate_latency(100.0, 0.5);
  auto cert = make_certificate(BoundKind::kDelay, "e2e", alpha(), e2e,
                               minplus::horizontal_deviation(alpha(), e2e),
                               {Curve::affine(100.0, 5.0)});
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC602")) << r.render("non-causal");
}

TEST(CheckerTest, AcceptsGenuineConcatenation) {
  // rate_latency(100, 0.1) (x) rate_latency(200, 0.15) =
  // rate_latency(100, 0.25): min rate, summed latency.
  const Curve e2e = Curve::rate_latency(100.0, 0.25);
  auto cert = make_certificate(
      BoundKind::kBacklog, "e2e", alpha(), e2e,
      minplus::vertical_deviation(alpha(), e2e),
      {Curve::rate_latency(100.0, 0.1), Curve::rate_latency(200.0, 0.15)});
  const auto r = check_certificate(cert);
  EXPECT_TRUE(r.clean()) << r.render("concat");
}

TEST(CheckerTest, NC605KernelDisagreementIsAWarning) {
  auto cert = golden_delay();
  cert.kernel_value = 0.80;  // certificate stays sound; the kernel lied
  const auto r = check_certificate(cert);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC605")) << r.render("kernel");
  EXPECT_EQ(r.count(diagnostics::Severity::kError), 0u);
  EXPECT_GE(r.count(diagnostics::Severity::kWarning), 1u);
}

TEST(CheckerTest, CheckCertificatesMergesReports) {
  auto bad = golden_delay();
  bad.has_witness = false;
  const auto r = check_certificates({golden_delay(), bad, golden_backlog()});
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has_code("NC603"));
}

// The three hazards of an emit-then-check call, whose table already holds
// the emitter's exact suprema and whose check_certificates call remembers
// clean derivations: each must be caught as from an empty table.

TEST(CheckerTest, SharedTableUlpNudgedClaimRejected) {
  for (const BoundKind kind : {BoundKind::kDelay, BoundKind::kBacklog}) {
    for (const bool up : {true, false}) {
      ExactCurveTable table;
      auto cert = make_certificate(
          table, kind, "test", alpha(), beta(),
          kind == BoundKind::kDelay
              ? minplus::horizontal_deviation(alpha(), beta())
              : minplus::vertical_deviation(alpha(), beta()));
      cert.claimed = std::nextafter(cert.claimed, up ? kInf : -kInf);
      const auto r = check_certificates({cert}, table);
      EXPECT_TRUE(r.has_code(up ? "NC603" : "NC601"))
          << to_string(kind) << (up ? " +1 ulp" : " -1 ulp") << "\n"
          << r.render("ulp");
    }
  }
}

TEST(CheckerTest, SharedTableMovedWitnessRejected) {
  ExactCurveTable table;
  auto cert = make_certificate(table, BoundKind::kBacklog, "test", alpha(),
                               beta(),
                               minplus::vertical_deviation(alpha(), beta()));
  cert.witness_time = 0.1;  // the vertical deviation peaks at t = 0.5
  const auto r = check_certificates({cert}, table);
  EXPECT_TRUE(r.has_code("NC603")) << r.render("moved-witness");
}

TEST(CheckerTest, SkippedDerivationIsCheckedAgainForTheNextCertificate) {
  // Both certificates claim the e2e service rate_latency(150, 0.1) was
  // concatenated from rate_latency(100, 0.2), which it exceeds. The first
  // one's nudged claim fails check_bound (NC601), so its derivation checks
  // are skipped; that must not mark the derivation clean for the second.
  const Curve e2e = Curve::rate_latency(150.0, 0.1);
  const Curve stage = Curve::rate_latency(100.0, 0.2);
  ExactCurveTable table;
  auto first = make_certificate(table, BoundKind::kDelay, "first", alpha(),
                                e2e,
                                minplus::horizontal_deviation(alpha(), e2e),
                                {stage});
  first.claimed = std::nextafter(first.claimed, -kInf);
  const auto second = make_certificate(
      table, BoundKind::kBacklog, "second", alpha(), e2e,
      minplus::vertical_deviation(alpha(), e2e), {stage});
  const auto shared = check_certificates({first, second}, table);
  bool first_nc601 = false;
  bool second_nc602 = false;
  for (const auto& d : shared.diagnostics()) {
    first_nc601 = first_nc601 || (d.code == "NC601" && d.location == "first");
    second_nc602 =
        second_nc602 || (d.code == "NC602" && d.location == "second");
  }
  EXPECT_TRUE(first_nc601) << shared.render("shared");
  EXPECT_TRUE(second_nc602) << shared.render("shared");
  EXPECT_EQ(shared.render("x"),
            check_certificates({first, second}).render("x"));
}

TEST(CheckerTest, CleanDerivationIsRememberedWithItsComponents) {
  // One e2e service, first with the components it was concatenated from
  // (clean), then with a component it exceeds: the second is a different
  // derivation and must still report NC602.
  const Curve e2e = Curve::rate_latency(100.0, 0.25);
  const auto genuine = make_certificate(
      BoundKind::kDelay, "genuine", alpha(), e2e,
      minplus::horizontal_deviation(alpha(), e2e),
      {Curve::rate_latency(100.0, 0.1), Curve::rate_latency(200.0, 0.15)});
  const auto exceeded = make_certificate(
      BoundKind::kDelay, "exceeded", alpha(), e2e,
      minplus::horizontal_deviation(alpha(), e2e),
      {Curve::rate_latency(100.0, 0.1), Curve::rate_latency(50.0, 0.15)});
  const auto r = check_certificates({genuine, exceeded});
  ASSERT_FALSE(r.diagnostics().empty());
  for (const auto& d : r.diagnostics()) {
    EXPECT_EQ(d.code, "NC602") << r.render("components");
    EXPECT_EQ(d.location, "exceeded") << r.render("components");
  }
}

}  // namespace
}  // namespace streamcalc::certify
