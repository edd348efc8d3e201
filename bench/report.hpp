// Shared output helpers for the paper-artifact benches: a banner per
// artifact, paper-vs-reproduction comparison rows, replication-summary
// formatting, and a machine-readable JSON result emitter (--json <path>).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace streamcalc::bench {

inline void banner(const std::string& artifact,
                   const std::string& description) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n%s\n", artifact.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

/// "within x%" annotation comparing a reproduced value to the published one.
inline std::string versus(double ours, double published) {
  if (published == 0.0) return "-";
  const double rel = (ours - published) / published;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.1f%%", rel * 100.0);
  return buf;
}

/// "mean ± ci" cell for replication-summary tables.
inline std::string mean_ci(double mean, double ci95_half) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s ± %s",
                util::format_significant(mean).c_str(),
                util::format_significant(ci95_half).c_str());
  return buf;
}

/// Machine-readable benchmark results: name/value/unit rows serialized as a
/// JSON array, so perf trajectories can be tracked across commits.
class JsonReport {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back(Row{std::move(name), value, std::move(unit)});
  }

  /// Writes `[{"name": ..., "value": ..., "unit": ...}, ...]` to `path`.
  /// When the observability layer is runtime-enabled, the registry's
  /// counters and gauges ride along as extra `obs.*` rows, so every bench
  /// artifact carries the instrumentation of the run that produced it.
  /// Returns false (after printing a warning) when the file cannot be
  /// opened.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write JSON results to %s\n",
                   path.c_str());
      return false;
    }
    std::vector<Row> rows = rows_;
    if (obs::enabled()) {
      const obs::Registry& reg = obs::Registry::global();
      for (const auto& nv : reg.counter_values()) {
        rows.push_back(Row{"obs." + nv.name, nv.value, "count"});
      }
      for (const auto& nv : reg.gauge_values()) {
        rows.push_back(Row{"obs." + nv.name, nv.value, "value"});
      }
    }
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out, "  {\"name\": %s, \"value\": %s, \"unit\": %s}%s\n",
                   util::json_quote(r.name).c_str(),
                   util::json_number(r.value).c_str(),
                   util::json_quote(r.unit).c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fputs("]\n", out);
    std::fclose(out);
    std::printf("wrote %zu JSON result rows to %s\n", rows.size(),
                path.c_str());
    return true;
  }

  std::size_t size() const { return rows_.size(); }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };

  std::vector<Row> rows_;
};

/// Extracts a `--json <path>` (or `--json=<path>`) argument from argv,
/// compacting argv in place so downstream flag parsers never see it.
/// Returns the path, or "" when the flag is absent.
inline std::string extract_json_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], "--json") == 0 && r + 1 < argc) {
      path = argv[++r];
    } else if (std::strncmp(argv[r], "--json=", 7) == 0) {
      path = argv[r] + 7;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return path;
}

}  // namespace streamcalc::bench
