#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "obs/runtime.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::obs {

namespace {

/// Per-thread span nesting depth (entered spans not yet exited).
thread_local std::uint32_t t_depth = 0;

/// Cheap "does anyone want span records?" check shared by every Span
/// constructor: true while the global tracer is started.
std::atomic<bool> g_tracing{false};

}  // namespace

struct Tracer::Impl {
  mutable util::Mutex mutex;
  std::vector<SpanRecord> ring SC_GUARDED_BY(mutex);
  std::size_t capacity SC_GUARDED_BY(mutex) = Tracer::kDefaultCapacity;
  std::size_t head SC_GUARDED_BY(mutex) = 0;  ///< index of oldest record
  std::size_t size SC_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped SC_GUARDED_BY(mutex) = 0;
};

Tracer::Tracer() : impl_(std::make_unique<Impl>()) {}
Tracer::~Tracer() = default;

void Tracer::start(std::size_t capacity) {
  {
    util::MutexLock lock(impl_->mutex);
    impl_->capacity = std::max<std::size_t>(capacity, 1);
    impl_->ring.assign(impl_->capacity, SpanRecord{});
    impl_->head = 0;
    impl_->size = 0;
    impl_->dropped = 0;
  }
  g_tracing.store(enabled(), std::memory_order_relaxed);
}

void Tracer::stop() { g_tracing.store(false, std::memory_order_relaxed); }

bool Tracer::active() const {
  return g_tracing.load(std::memory_order_relaxed);
}

void Tracer::record(const SpanRecord& r) {
  util::MutexLock lock(impl_->mutex);
  if (impl_->ring.empty()) impl_->ring.assign(impl_->capacity, SpanRecord{});
  if (impl_->size < impl_->capacity) {
    impl_->ring[(impl_->head + impl_->size) % impl_->capacity] = r;
    ++impl_->size;
  } else {
    // Full: overwrite the oldest so the ring keeps the newest records.
    impl_->ring[impl_->head] = r;
    impl_->head = (impl_->head + 1) % impl_->capacity;
    ++impl_->dropped;
  }
}

std::vector<SpanRecord> Tracer::snapshot() const {
  util::MutexLock lock(impl_->mutex);
  std::vector<SpanRecord> out;
  out.reserve(impl_->size);
  for (std::size_t i = 0; i < impl_->size; ++i) {
    out.push_back(impl_->ring[(impl_->head + i) % impl_->capacity]);
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  util::MutexLock lock(impl_->mutex);
  return impl_->dropped;
}

void Tracer::clear() {
  util::MutexLock lock(impl_->mutex);
  impl_->head = 0;
  impl_->size = 0;
  impl_->dropped = 0;
}

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << (i > 0 ? "," : "") << "\n  {\"name\": " << util::json_quote(s.name)
       << ", \"cat\": " << util::json_quote(s.category)
       << ", \"ph\": \"X\", \"ts\": "
       << util::json_number(static_cast<double>(s.start_ns) / 1e3)
       << ", \"dur\": "
       << util::json_number(static_cast<double>(s.duration_ns()) / 1e3)
       << ", \"pid\": 1, \"tid\": " << s.thread
       << ", \"args\": {\"depth\": " << s.depth << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

Tracer& Tracer::global() {
  // Leaked for the same reason as Registry::global(): spans on detached
  // or late-exiting threads must never race tracer destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Span::Span(const char* category, const char* name)
    : category_(category), name_(name) {
  if (!g_tracing.load(std::memory_order_relaxed)) {
    return;  // dormant: one relaxed load, nothing else
  }
  if (!enabled()) return;
  active_ = true;
  depth_ = t_depth++;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  SpanRecord r;
  r.category = category_;
  r.name = name_;
  r.start_ns = start_ns_;
  r.end_ns = now_ns();
  r.thread = thread_id();
  r.depth = depth_;
  --t_depth;
  if (g_tracing.load(std::memory_order_relaxed)) {
    Tracer::global().record(r);
  }
}

}  // namespace streamcalc::obs
