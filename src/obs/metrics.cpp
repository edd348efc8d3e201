#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "util/json.hpp"

namespace streamcalc::obs {

using util::json_number;
using util::json_quote;

void Histogram::observe(double value) {
  const std::size_t i = bucket_index(value);
  util::MutexLock lock(mutex_);
  if (data_.count == 0 || value < data_.min) data_.min = value;
  if (data_.count == 0 || value > data_.max) data_.max = value;
  ++data_.count;
  data_.sum += value;
  ++data_.buckets[i];
}

Histogram::Snapshot Histogram::snapshot() const {
  util::MutexLock lock(mutex_);
  return data_;
}

double Histogram::bucket_bound(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i));  // 2^i: 1, 2, 4, ...
}

std::size_t Histogram::bucket_index(double value) {
  if (!(value > 1.0)) return 0;  // [0, 1], negatives, and NaN
  for (std::size_t i = 1; i < kBuckets; ++i) {
    if (value <= bucket_bound(i)) return i;
  }
  return kBuckets;  // unbounded overflow bucket
}

double Histogram::estimate_quantile(const Snapshot& snapshot, double q) {
  if (snapshot.count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(snapshot.count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    const double in_bucket = static_cast<double>(snapshot.buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate inside bucket i. The overflow bucket has no finite upper
    // bound; its observed maximum stands in.
    const double lo = i == 0 ? 0.0 : bucket_bound(i - 1);
    const double hi = i < kBuckets ? bucket_bound(i) : snapshot.max;
    const double frac =
        in_bucket > 0.0 ? (target - cumulative) / in_bucket : 1.0;
    const double est = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    return std::min(snapshot.max, std::max(snapshot.min, est));
  }
  return snapshot.max;
}

struct Registry::Impl {
  mutable util::Mutex mutex;
  // std::map keeps names sorted, which makes json() deterministic.
  // Instruments are heap-allocated and never freed while the process
  // lives, so references handed out stay valid without holding the lock.
  std::map<std::string, std::unique_ptr<Counter>> counters
      SC_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Gauge>> gauges SC_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      SC_GUARDED_BY(mutex);
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter& Registry::counter(const std::string& name) {
  util::MutexLock lock(impl_->mutex);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  util::MutexLock lock(impl_->mutex);
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  util::MutexLock lock(impl_->mutex);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string Registry::json() const {
  util::MutexLock lock(impl_->mutex);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    os << (first ? "" : ",") << "\n    " << json_quote(name) << ": "
       << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    os << (first ? "" : ",") << "\n    " << json_quote(name) << ": "
       << json_number(g->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    const Histogram::Snapshot s = h->snapshot();
    os << (first ? "" : ",") << "\n    " << json_quote(name) << ": {"
       << "\"count\": " << s.count << ", \"sum\": " << json_number(s.sum);
    if (s.count > 0) {
      os << ", \"min\": " << json_number(s.min)
         << ", \"max\": " << json_number(s.max);
    }
    os << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t i = 0; i <= Histogram::kBuckets; ++i) {
      if (s.buckets[i] == 0) continue;
      os << (first_bucket ? "" : ", ") << "{\"le\": ";
      if (i < Histogram::kBuckets) {
        os << json_number(Histogram::bucket_bound(i));
      } else {
        os << "\"inf\"";
      }
      os << ", \"count\": " << s.buckets[i] << "}";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}";
  return os.str();
}

std::vector<Registry::NamedValue> Registry::counter_values() const {
  util::MutexLock lock(impl_->mutex);
  std::vector<NamedValue> out;
  out.reserve(impl_->counters.size());
  for (const auto& kv : impl_->counters) {
    out.push_back({kv.first, static_cast<double>(kv.second->value())});
  }
  return out;
}

std::vector<Registry::NamedValue> Registry::gauge_values() const {
  util::MutexLock lock(impl_->mutex);
  std::vector<NamedValue> out;
  out.reserve(impl_->gauges.size());
  for (const auto& kv : impl_->gauges) {
    out.push_back({kv.first, kv.second->value()});
  }
  return out;
}

Registry& Registry::global() {
  // Leaked on purpose: instrumented sites cache instrument references in
  // function-local statics whose destruction order versus this registry
  // is unknowable; a leak makes every order safe.
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace streamcalc::obs
