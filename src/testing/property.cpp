#include "testing/property.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "testing/shrink.hpp"
#include "util/context.hpp"
#include "util/error.hpp"

namespace streamcalc::testing {

namespace {

/// Evaluates the property, folding exceptions into failure messages so the
/// fuzz loop and the shrinker see one uniform "fails or not" signal.
std::string eval_property(const PropertyFn& property,
                          const std::vector<minplus::Curve>& inputs) {
  try {
    return property(inputs);
  } catch (const std::exception& e) {
    return std::string("property threw: ") + e.what();
  } catch (...) {
    return "property threw a non-standard exception";
  }
}

}  // namespace

int base_cases() {
  // Parsed per call so a suite's budget tracks STREAMCALC_FUZZ_CASES;
  // from_env() strict-parses it (a garbled budget must not silently
  // revert to 500 cases). The range cap (<= 1e8, well below INT_MAX)
  // keeps the scaled_cases multiplication from overflowing.
  return util::Context::from_env().fuzz_cases;
}

int scaled_cases(int default_cases) {
  const long scaled =
      static_cast<long>(default_cases) * base_cases() / 500;
  return scaled < 1 ? 1 : static_cast<int>(scaled);
}

std::string Failure::report() const {
  std::ostringstream os;
  os << "property falsified (seed=" << seed << ", case=" << case_index
     << ", " << shrunk.size() << " operand(s))\n";
  for (std::size_t i = 0; i < shrunk.size(); ++i) {
    os << "  operand " << i << " (shrunk): " << shrunk[i].describe() << "\n";
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (!(original[i] == shrunk[i])) {
      os << "  operand " << i << " (as generated): "
         << original[i].describe() << "\n";
    }
  }
  os << "  " << message;
  return os.str();
}

std::optional<Failure> fuzz(const FuzzSpec& spec, const PropertyFn& property) {
  util::require(!spec.operands.empty(),
                "fuzz() requires at least one operand kind");
  const int cases = spec.cases > 0 ? spec.cases : scaled_cases(500);

  // One generator stream per case, derived from (seed, index): a failure
  // replays from its case index alone, without regenerating the prefix.
  util::SplitMix64 sm(spec.seed);
  for (int index = 0; index < cases; ++index) {
    CurveGenerator gen(spec.gen, sm.next());
    std::vector<minplus::Curve> inputs;
    inputs.reserve(spec.operands.size());
    for (const CurveKind kind : spec.operands) {
      inputs.push_back(gen.next(kind));
    }

    const std::string message = eval_property(property, inputs);
    if (message.empty()) continue;

    Failure failure;
    failure.seed = spec.seed;
    failure.case_index = index;
    failure.original = inputs;
    failure.shrunk = shrink_tuple(
        std::move(inputs),
        [&](const std::vector<minplus::Curve>& trial) {
          return !eval_property(property, trial).empty();
        },
        spec.shrink_budget);
    failure.message = eval_property(property, failure.shrunk);
    return failure;
  }
  return std::nullopt;
}

}  // namespace streamcalc::testing
