// Kernel census: every specialized min-plus kernel must be reached by a
// real spec. A kernel that only synthetic operands reach is code without a
// measurement behind it (DESIGN.md §11), so this runs `streamcalc analyze`
// and `streamcalc certify` in process on every example spec and every
// diagnostics fixture and requires a non-zero
// `minplus.{convolve,deconvolve}.kernel.<name>` counter for each value
// of ConvKernel and DeconvKernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cli/certify.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "minplus/operations.hpp"
#include "obs/obs.hpp"

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

/// The minplus.{convolve,deconvolve}.kernel.<name> counter names, one per
/// kernel value; kGeneral is the last value of both enums.
std::vector<std::string> kernel_counters() {
  std::vector<std::string> names;
  for (int k = 0; k <= static_cast<int>(ConvKernel::kGeneral); ++k) {
    names.push_back(std::string("minplus.convolve.kernel.") +
                    kernel_name(static_cast<ConvKernel>(k)));
  }
  for (int k = 0; k <= static_cast<int>(DeconvKernel::kGeneral); ++k) {
    names.push_back(std::string("minplus.deconvolve.kernel.") +
                    kernel_name(static_cast<DeconvKernel>(k)));
  }
  return names;
}

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

TEST(KernelCensus, EveryKernelIsReachedByARealSpec) {
  obs::set_enabled(true);
  const std::vector<std::string> names = kernel_counters();
  std::vector<std::uint64_t> before;
  for (const std::string& name : names) before.push_back(counter(name));

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

  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_GT(counter(names[i]), before[i])
        << names[i] << " never fired on " << specs.size() << " specs";
  }
}

}  // namespace
}  // namespace streamcalc::cli
