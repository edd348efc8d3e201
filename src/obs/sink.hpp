// Profiling hooks: a Sink observes every completed span and every metric
// update, so tests and benches can assert on instrumentation ("parallel
// convolve issued N subtasks", "one convolve call per hop") without
// scraping trace files.
//
// One sink may be installed at a time (an atomic pointer; install nullptr
// to remove). The caller owns the sink and must uninstall it before
// destroying it or letting instrumented threads outlive it. Sinks run
// inline on the instrumented thread — implementations must be thread-safe
// and cheap.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  /// Called when an active span completes.
  virtual void on_span(const SpanRecord& span) = 0;

  /// Called on every SC_OBS_COUNT with the site's metric name and delta.
  virtual void on_metric(const std::string& name, double delta) = 0;
};

/// Installs `sink` (nullptr removes). Returns the previously installed
/// sink so callers can restore it.
Sink* set_sink(Sink* sink);

/// Currently installed sink, or nullptr.
Sink* sink();

/// Forwards a metric update to the installed sink, if any. Used by the
/// SC_OBS_COUNT macro; exposed for the obs library's own internals.
void notify_metric(const char* name, double delta);

/// Ready-made thread-safe sink that tallies spans by "category/name" and
/// metric deltas by name.
class CollectingSink : public Sink {
 public:
  void on_span(const SpanRecord& span) override;
  void on_metric(const std::string& name, double delta) override;

  /// Completed spans recorded under "category/name".
  std::uint64_t span_count(const std::string& category_slash_name) const;

  /// Sum of deltas recorded for `name` (0.0 when never seen).
  double metric_total(const std::string& name) const;

  /// Total spans seen across all names.
  std::uint64_t total_spans() const;

  void reset();

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, std::uint64_t> spans_ SC_GUARDED_BY(mutex_);
  std::map<std::string, double> metrics_ SC_GUARDED_BY(mutex_);
  std::uint64_t total_spans_ SC_GUARDED_BY(mutex_) = 0;
};

}  // namespace streamcalc::obs
