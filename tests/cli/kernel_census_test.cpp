// Kernel census: every specialized min-plus kernel must be reached by a
// real spec. A kernel that only synthetic operands reach is code without a
// measurement behind it (DESIGN.md §11), so this runs `streamcalc analyze`
// and `streamcalc certify` in process on every example spec and every
// diagnostics fixture, with a fresh curve cache, and requires a non-zero
// `minplus.{convolve,deconvolve}.kernel.<name>` counter for each value of
// ConvKernel and DeconvKernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cli/certify.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "minplus/cache.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "obs/runtime.hpp"
#include "obs/sink.hpp"

#if !defined(SC_SPEC_DIR) || !defined(SC_LINT_SPEC_DIR)
#error "SC_SPEC_DIR and SC_LINT_SPEC_DIR must be defined by the build"
#endif

namespace streamcalc::cli {
namespace {

using minplus::detail::ConvKernel;
using minplus::detail::DeconvKernel;
using minplus::detail::kernel_name;

std::vector<std::string> real_specs() {
  std::vector<std::string> paths;
  for (const char* dir : {SC_SPEC_DIR, SC_LINT_SPEC_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".scspec") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(KernelCensus, EveryKernelIsReachedByARealSpec) {
#if !SC_OBS_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (STREAMCALC_OBS=OFF)";
#endif
  obs::set_enabled(true);
  obs::CollectingSink sink;
  obs::Sink* previous = obs::set_sink(&sink);
  minplus::CurveOpCache::global().clear();

  const std::vector<std::string> specs = real_specs();
  ASSERT_FALSE(specs.empty());
  for (const std::string& path : specs) {
    Options opts;
    opts.paths = {path};
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    run_analyze(opts);
    opts.command = "certify";
    run_certify(opts.paths, opts);
    ::testing::internal::GetCapturedStdout();
    ::testing::internal::GetCapturedStderr();
  }
  obs::set_sink(previous);

  // kGeneral is the last value of both enums.
  for (int k = 0; k <= static_cast<int>(ConvKernel::kGeneral); ++k) {
    const std::string counter = std::string("minplus.convolve.kernel.") +
                                kernel_name(static_cast<ConvKernel>(k));
    EXPECT_GT(sink.metric_total(counter), 0.0)
        << counter << " never fired on " << specs.size() << " specs";
  }
  for (int k = 0; k <= static_cast<int>(DeconvKernel::kGeneral); ++k) {
    const std::string counter = std::string("minplus.deconvolve.kernel.") +
                                kernel_name(static_cast<DeconvKernel>(k));
    EXPECT_GT(sink.metric_total(counter), 0.0)
        << counter << " never fired on " << specs.size() << " specs";
  }
}

}  // namespace
}  // namespace streamcalc::cli
