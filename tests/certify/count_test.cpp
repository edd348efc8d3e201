// The exact-deviation count: certify.exact_deviations rises once per exact
// supremum an ExactCurveTable computes (a table miss), not per lookup.
// certify_pipeline emits and checks in one table, so it computes one
// supremum per certificate; a standalone check starts from an empty table
// and computes every one again.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "certify/checker.hpp"
#include "certify/postflight.hpp"
#include "cli/options.hpp"
#include "cli/spec.hpp"
#include "netcalc/pipeline.hpp"
#include "obs/obs.hpp"

#if !defined(SC_SPEC_DIR)
#error "SC_SPEC_DIR must be defined"
#endif

namespace streamcalc::certify {
namespace {

/// The named counter, or nullopt when obs is compiled out or switched off.
std::optional<std::uint64_t> counter(const char* name) {
#if SC_OBS_ENABLED
  if (obs::enabled()) return obs::Registry::global().counter(name).value();
#endif
  (void)name;
  return std::nullopt;
}

TEST(ExactDeviationCount, OnePerCertificateEmittedAndCheckedInOneTable) {
  if (!counter("certify.exact_deviations")) {
    GTEST_SKIP() << "obs is compiled out or off";
  }
  for (const char* name : {"bitw.scspec", "quickstart.scspec"}) {
    SCOPED_TRACE(name);
    std::string text;
    ASSERT_TRUE(cli::read_spec_text(std::string(SC_SPEC_DIR) + "/" + name,
                                    text));
    const cli::Spec spec = cli::parse_spec(text);
    ASSERT_FALSE(spec.is_dag());
    const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);

    const std::uint64_t certs0 = *counter("certify.certificates");
    const std::uint64_t devs0 = *counter("certify.exact_deviations");
    EXPECT_TRUE(certify_pipeline(model).clean());
    const std::uint64_t certified = *counter("certify.certificates") - certs0;
    EXPECT_GT(certified, 0u);
    EXPECT_EQ(*counter("certify.exact_deviations") - devs0, certified);

    const std::uint64_t devs1 = *counter("certify.exact_deviations");
    const auto emitted = emit_pipeline_certificates(model);
    EXPECT_TRUE(check_certificates(emitted).clean());
    EXPECT_EQ(emitted.size(), certified);
    EXPECT_EQ(*counter("certify.exact_deviations") - devs1, 2 * certified);
  }
}

}  // namespace
}  // namespace streamcalc::certify
