// Unit tests for the post-flight certification wiring: STREAMCALC_CERTIFY
// mode parsing, certificate emission coverage over pipeline/DAG models,
// and strict-mode escalation.
#include "certify/postflight.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/bitw.hpp"
#include "certify/checker.hpp"
#include "netcalc/pipeline.hpp"
#include "util/error.hpp"

namespace streamcalc::certify {
namespace {

class CertifyEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("STREAMCALC_CERTIFY"); }
};

TEST_F(CertifyEnvTest, DefaultsToOff) {
  unsetenv("STREAMCALC_CERTIFY");
  EXPECT_EQ(certify_mode(util::Context::from_env()), CertifyMode::kOff);
}

TEST_F(CertifyEnvTest, ParsesAllModes) {
  setenv("STREAMCALC_CERTIFY", "off", 1);
  EXPECT_EQ(certify_mode(util::Context::from_env()), CertifyMode::kOff);
  setenv("STREAMCALC_CERTIFY", "warn", 1);
  EXPECT_EQ(certify_mode(util::Context::from_env()), CertifyMode::kWarn);
  setenv("STREAMCALC_CERTIFY", "strict", 1);
  EXPECT_EQ(certify_mode(util::Context::from_env()), CertifyMode::kStrict);
}

TEST_F(CertifyEnvTest, RejectsUnknownMode) {
  setenv("STREAMCALC_CERTIFY", "paranoid", 1);
  EXPECT_THROW(certify_mode(util::Context::from_env()), util::Error);
}

TEST_F(CertifyEnvTest, EmitsOneDelayAndOneBacklogCertificatePerScope) {
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

TEST_F(CertifyEnvTest, StrictModeThrowsOnDefectiveReport) {
  const netcalc::PipelineModel model(apps::bitw::nodes(),
                                     apps::bitw::delay_study_source(),
                                     apps::bitw::policy());
  auto certs = emit_pipeline_certificates(model);
  certs.front().has_witness = false;  // plant a defect
  const auto report = check_certificates(certs);
  setenv("STREAMCALC_CERTIFY", "strict", 1);
  EXPECT_THROW(postflight("test", report), util::Error);
  setenv("STREAMCALC_CERTIFY", "warn", 1);
  EXPECT_NO_THROW(postflight("test", report));
  setenv("STREAMCALC_CERTIFY", "off", 1);
  EXPECT_NO_THROW(postflight("test", report));
}

TEST_F(CertifyEnvTest, PostflightPipelinePassesOnSoundModel) {
  const netcalc::PipelineModel model(apps::bitw::nodes(),
                                     apps::bitw::delay_study_source(),
                                     apps::bitw::policy());
  setenv("STREAMCALC_CERTIFY", "strict", 1);
  EXPECT_NO_THROW(postflight_pipeline("bitw", model));
}

}  // namespace
}  // namespace streamcalc::certify
