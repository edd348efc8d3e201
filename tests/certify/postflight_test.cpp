// Unit tests for the post-flight certification wiring: certificate
// emission coverage over pipeline models, and how the lint and certify
// gates apply their enforcement mode.
#include "certify/postflight.hpp"

#include <gtest/gtest.h>

#include <string>

#include "apps/bitw.hpp"
#include "certify/checker.hpp"
#include "diagnostics/lint.hpp"
#include "netcalc/pipeline.hpp"
#include "util/error.hpp"

namespace streamcalc::certify {
namespace {

using diagnostics::LintReport;

TEST(CertifyEnvTest, EmitsOneDelayAndOneBacklogCertificatePerScope) {
  const netcalc::PipelineModel model(apps::bitw::nodes(),
                                     apps::bitw::delay_study_source(),
                                     apps::bitw::policy());
  const auto certs = emit_pipeline_certificates(model);
  // e2e delay + e2e backlog + per-node delay + per-node backlog.
  EXPECT_EQ(certs.size(), 2 + 2 * model.nodes().size());
  std::size_t with_provenance = 0;
  for (const auto& c : certs) {
    if (!c.components.empty()) ++with_provenance;
  }
  // Exactly the two e2e certificates carry the concatenation provenance.
  EXPECT_EQ(with_provenance, 2u);
  const auto report = check_certificates(certs);
  EXPECT_TRUE(report.clean()) << report.render("bitw");
}

// Both gates end in diagnostics::enforce, so each mode must act on a lint
// report exactly as it acts on a certify report; the strict messages are
// the ones drivers and scripts already match, byte for byte.
TEST(EnforceGates, LintAndCertifyApplyEachModeAlike) {
  using diagnostics::Severity;
  using util::EnforceMode;
  LintReport defective;
  defective.add({"NC101", Severity::kWarning, "node 'aes'",
                 "unstable node", "lower the source rate"});
  defective.add({"NC601", Severity::kError, "e2e", "bound fails", ""});
  LintReport clean;
  clean.add({"NC401", Severity::kInfo, "node 'aes'", "odd block size", ""});

  const struct {
    const char* gate;
    void (*apply)(const std::string&, const LintReport&, EnforceMode);
    const char* strict_error;
  } gates[] = {
      {"lint", diagnostics::preflight,
       "t: model failed lint with 1 error(s) and 1 warning(s) "
       "(STREAMCALC_LINT=strict)"},
      {"certify", postflight,
       "t: bound certification failed with 1 error(s) and 1 warning(s) "
       "(STREAMCALC_CERTIFY=strict)"},
  };
  for (const auto& [gate, apply, strict_error] : gates) {
    SCOPED_TRACE(gate);
    ::testing::internal::CaptureStderr();
    EXPECT_NO_THROW(apply("t", defective, EnforceMode::kOff));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    ::testing::internal::CaptureStderr();
    EXPECT_NO_THROW(apply("t", defective, EnforceMode::kWarn));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              defective.render("t"));

    ::testing::internal::CaptureStderr();
    try {
      apply("t", defective, EnforceMode::kStrict);
      ADD_FAILURE() << "strict mode accepted a defective report";
    } catch (const util::PreconditionError& e) {
      EXPECT_EQ(std::string(e.what()), strict_error);
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              defective.render("t"));

    ::testing::internal::CaptureStderr();
    EXPECT_NO_THROW(apply("t", clean, EnforceMode::kStrict));
    (void)::testing::internal::GetCapturedStderr();
  }
}

TEST(CertifyEnvTest, PostflightPipelinePassesOnSoundModel) {
  const netcalc::PipelineModel model(apps::bitw::nodes(),
                                     apps::bitw::delay_study_source(),
                                     apps::bitw::policy());
  util::Context ctx;
  ctx.certify = util::EnforceMode::kStrict;
  EXPECT_NO_THROW(postflight_pipeline("bitw", model, ctx));
}

}  // namespace
}  // namespace streamcalc::certify
