// bench_compare: guard-rail comparator for the bench-smoke CI job.
//
// Compares a freshly measured benchmark JSON dump (the `--json` output of
// the bench binaries, an array of {"name", "value", "unit"} entries)
// against a checked-in baseline and fails (exit 1) when any watched
// benchmark regresses by more than the allowed ratio. Values are
// normalized to nanoseconds before comparison, so baseline and current
// files may use different units.
//
// Usage:
//   bench_compare <baseline.json> <current.json> [options]
//     --max-regression <factor>   fail when current > factor * baseline
//                                 (default 1.20, i.e. +20%)
//     --filter <substring>        only compare benchmarks whose name
//                                 contains the substring (repeatable);
//                                 default: compare every common benchmark
//     --require <substring>       fail unless at least one compared
//                                 benchmark matches (repeatable)
//
// Exit codes: 0 no regression, 1 a regression or a --require that was not
// compared, 2 bad input. Bad input is an unreadable file, a file that is
// not a JSON array of row objects with a string "name" (reported with the
// parser's byte offset), or a compared time row whose value is not a
// finite number: a benchmark that measured nothing must not pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

using streamcalc::util::Json;

// Returns the ns-per-unit factor, or 0 for non-time rows (the bench dumps
// also carry obs metric rows with unit "count"), which are skipped.
double unit_to_nanos(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 0.0;
}

[[noreturn]] void bad_input(const char* path, const std::string& what) {
  std::fprintf(stderr, "bench_compare: %s: %s\n", path, what.c_str());
  std::exit(2);
}

// Loads the time rows of a bench JSON dump, keyed by name and normalized
// to nanoseconds. A time row whose value is missing or not a number is
// kept as NaN, so comparing it is an error rather than a silent pass.
std::map<std::string, double> load(const char* path) {
  std::ifstream in(path);
  if (!in) bad_input(path, "cannot open");
  std::stringstream buf;
  buf << in.rdbuf();
  const streamcalc::util::JsonParseResult parsed =
      streamcalc::util::json_parse(buf.str());
  if (!parsed.ok()) {
    bad_input(path, "parse error at byte " + std::to_string(parsed.offset) +
                        ": " + parsed.error);
  }
  if (!parsed.value.is_array()) {
    bad_input(path, "expected an array of {name, value, unit} rows");
  }
  std::map<std::string, double> out;
  for (const Json& row : parsed.value.as_array()) {
    const Json* name = row.find("name");
    if (name == nullptr || !name->is_string()) {
      bad_input(path, "every row must be an object with a string \"name\"");
    }
    const double factor = unit_to_nanos(row.string_or("unit", "ns"));
    if (factor == 0.0) continue;
    out[name->as_string()] =
        factor * row.number_or("value",
                               std::numeric_limits<double>::quiet_NaN());
  }
  if (out.empty()) bad_input(path, "no benchmark entries");
  return out;
}

bool matches_any(const std::string& name,
                 const std::vector<std::string>& needles) {
  return std::any_of(needles.begin(), needles.end(),
                     [&](const std::string& n) {
                       return name.find(n) != std::string::npos;
                     });
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  double max_regression = 1.20;
  std::vector<std::string> filters;
  std::vector<std::string> required;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-regression" && i + 1 < argc) {
      max_regression = std::strtod(argv[++i], nullptr);
    } else if (arg == "--filter" && i + 1 < argc) {
      filters.emplace_back(argv[++i]);
    } else if (arg == "--require" && i + 1 < argc) {
      required.emplace_back(argv[++i]);
    } else if (!baseline_path) {
      baseline_path = argv[i];
    } else if (!current_path) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "bench_compare: unexpected argument '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  if (!baseline_path || !current_path || !(max_regression > 0.0)) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <current.json> "
                 "[--max-regression F] [--filter S]... [--require S]...\n");
    return 2;
  }

  const auto baseline = load(baseline_path);
  const auto current = load(current_path);

  int compared = 0;
  int regressions = 0;
  int invalid = 0;
  std::vector<std::string> satisfied_requirements;
  for (const auto& [name, cur_ns] : current) {
    if (!filters.empty() && !matches_any(name, filters)) continue;
    const auto it = baseline.find(name);
    if (it == baseline.end()) {
      std::printf("  NEW  %-44s %.3f ns (no baseline)\n", name.c_str(),
                  cur_ns);
      continue;
    }
    if (!std::isfinite(cur_ns) || !std::isfinite(it->second)) {
      std::fprintf(stderr,
                   "bench_compare: '%s' has no finite time value in %s\n",
                   name.c_str(),
                   std::isfinite(cur_ns) ? baseline_path : current_path);
      ++invalid;
      continue;
    }
    ++compared;
    if (matches_any(name, required)) satisfied_requirements.push_back(name);
    const double ratio = cur_ns / it->second;
    const bool bad = ratio > max_regression;
    if (bad) ++regressions;
    std::printf("  %s %-44s %12.3f -> %12.3f ns  (%.2fx)\n",
                bad ? "FAIL" : " ok ", name.c_str(), it->second, cur_ns,
                ratio);
  }

  if (invalid > 0) return 2;
  for (const std::string& req : required) {
    if (!matches_any(req, satisfied_requirements) &&
        std::none_of(satisfied_requirements.begin(),
                     satisfied_requirements.end(),
                     [&](const std::string& n) {
                       return n.find(req) != std::string::npos;
                     })) {
      std::fprintf(stderr,
                   "bench_compare: required benchmark '%s' was not "
                   "compared (missing from current run or baseline)\n",
                   req.c_str());
      return 1;
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "bench_compare: nothing to compare\n");
    return 1;
  }
  std::printf("bench_compare: %d compared, %d regression(s) beyond %.2fx\n",
              compared, regressions, max_regression);
  return regressions == 0 ? 0 : 1;
}
