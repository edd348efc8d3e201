// Span tracer: RAII spans, a bounded thread-safe ring buffer of completed
// spans and chrome://tracing JSON export.
//
// A Span brackets one unit of work (one convolution, one parallel_for, one
// replication). Construction loads one relaxed atomic — whether the global
// tracer is recording — and does nothing else when it is not, so dormant
// instrumentation stays off the profile. A recording tracer is then
// checked against the master obs::enabled() switch. When active, the span
// stamps steady-clock times at entry/exit, tracks per-thread nesting
// depth, and on completion appends a SpanRecord to the Tracer ring.
//
// The ring buffer is fixed-capacity and keeps the *newest* records: when
// full, the oldest record is overwritten and `dropped()` increments. That
// matches how traces are used — the interesting spans are the ones nearest
// the point where you stopped tracing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace streamcalc::obs {

/// One completed span. `category` and `name` point at string literals
/// supplied at the instrumentation site.
struct SpanRecord {
  const char* category = "";
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< obs::now_ns() at entry
  std::uint64_t end_ns = 0;    ///< obs::now_ns() at exit
  std::uint32_t thread = 0;    ///< obs::thread_id() of the executing thread
  std::uint32_t depth = 0;     ///< span nesting depth on that thread (0 = top)

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-global collector of completed spans.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts collecting, with a ring of `capacity` records. Clears any
  /// previous recording. Ignored (spans stay dormant) while the master
  /// obs::enabled() switch is off.
  void start(std::size_t capacity = kDefaultCapacity);

  /// Stops collecting; records collected so far remain readable.
  void stop();

  /// True while started (spans append to the ring).
  bool active() const;

  /// Completed spans, oldest first. At most `capacity` records; earlier
  /// ones beyond that were dropped (see dropped()).
  std::vector<SpanRecord> snapshot() const;

  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const;

  /// Drops all records and resets the dropped counter (keeps tracing
  /// active if it was).
  void clear();

  /// chrome://tracing "trace event" JSON (complete events, microsecond
  /// timestamps): load the file via chrome://tracing or https://ui.perfetto.dev.
  std::string chrome_trace_json() const;

  /// Appends one record (called by ~Span; public for tests).
  void record(const SpanRecord& r);

  static Tracer& global();

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII span handle. Cheap when dormant (see file comment).
class Span {
 public:
  Span(const char* category, const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is actually recording (tracer active at
  /// construction time).
  bool active() const { return active_; }

 private:
  const char* category_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace streamcalc::obs
