// Process-global metrics registry: counters, gauges, and log-scale
// histograms, exported as one JSON block.
//
// Counters and gauges are single atomics; histograms take a short mutex
// per observation. Instrumented sites resolve their instrument once (magic
// static in the SC_OBS_* macros) so the steady-state cost is the update
// itself. Instruments are never destroyed before process exit — the
// registry hands out references that stay valid for the program's
// lifetime, which is what lets hot paths cache them.
//
// The JSON export is deterministic (instruments sorted by name) so tests
// and bench emitters can diff it across runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, cache entries, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over non-negative values with fixed log-scale (power-of-two)
/// buckets: bucket i counts observations in (2^(i-1), 2^i] (bucket 0 is
/// [0, 1]); the last bucket is unbounded. Suited to the quantities we
/// track — curve piece counts, chunk counts, event batch sizes — whose
/// interesting structure is their order of magnitude.
class Histogram {
 public:
  /// Number of finite bucket upper bounds (1, 2, 4, ..., 2^(kBuckets-1));
  /// one more unbounded bucket catches everything larger.
  static constexpr std::size_t kBuckets = 33;

  void observe(double value);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0
    double max = 0.0;
    std::uint64_t buckets[kBuckets + 1] = {};
  };
  Snapshot snapshot() const;

  /// Upper bound of finite bucket `i` (1.0, 2.0, 4.0, ...).
  static double bucket_bound(std::size_t i);
  /// Index of the bucket `value` lands in.
  static std::size_t bucket_index(double value);

  /// Estimates the q-quantile (q in [0, 1]) of a snapshot by walking the
  /// cumulative bucket counts and interpolating linearly inside the
  /// selected bucket. Resolution is the bucket width — a factor of two —
  /// which is the intended fidelity for the latency percentiles the serve
  /// daemon reports (`stats` verb); precise percentiles come from
  /// client-side measurement (bench/serve_qps). Returns 0 when the
  /// snapshot is empty. The result is clamped to [snapshot.min,
  /// snapshot.max].
  static double estimate_quantile(const Snapshot& snapshot, double q);

 private:
  mutable util::Mutex mutex_;
  Snapshot data_ SC_GUARDED_BY(mutex_);
};

/// Name -> instrument registry. Lookup is mutex-guarded; hold the returned
/// reference (it lives for the process lifetime) rather than re-looking-up
/// on a hot path.
class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}. Names sorted; histograms render count / sum /
  /// min / max plus only their occupied buckets.
  std::string json() const;

  /// Name/value snapshot of scalar instruments, sorted by name — for
  /// emitters (bench --json) that flatten metrics into their own rows.
  struct NamedValue {
    std::string name;
    double value;
  };
  std::vector<NamedValue> counter_values() const;
  std::vector<NamedValue> gauge_values() const;

  /// Process-wide registry used by the SC_OBS_* macros.
  static Registry& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace streamcalc::obs
