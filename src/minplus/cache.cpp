#include "minplus/cache.hpp"

#include <cstring>
#include <list>
#include <unordered_map>
#include <vector>

#include "minplus/operations.hpp"
#include "obs/obs.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::minplus {

namespace {

/// splitmix64 finalizer — strong enough mixing for a hash table key.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h ^ (bits + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2)));
}

}  // namespace

std::uint64_t structural_hash(const Curve& c) {
  std::uint64_t h = 0xD6E8FEB86659FD93ULL;
  for (const Segment& s : c.segments()) {
    h = hash_combine(h, s.x);
    h = hash_combine(h, s.value_at);
    h = hash_combine(h, s.value_after);
    h = hash_combine(h, s.slope);
  }
  return h;
}

struct CurveOpCache::Impl {
  struct Entry {
    std::uint64_t key;
    Curve f;  ///< operand copies: exact collision check on lookup
    Curve g;
    Curve result;
  };

  explicit Impl(std::size_t cap) : capacity(cap) {}

  const std::size_t capacity;
  mutable util::Mutex mutex;
  /// Front = most recently used.
  std::list<Entry> lru SC_GUARDED_BY(mutex);
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index
      SC_GUARDED_BY(mutex);
  std::uint64_t hits SC_GUARDED_BY(mutex) = 0;
  std::uint64_t misses SC_GUARDED_BY(mutex) = 0;
};

CurveOpCache::CurveOpCache(std::size_t capacity)
    : impl_(std::make_unique<Impl>(capacity)) {}

CurveOpCache::~CurveOpCache() = default;

Curve CurveOpCache::get_or_compute(
    CacheOp op, const Curve& f, const Curve& g,
    const std::function<Curve(const Curve&, const Curve&)>& compute) {
  if (impl_->capacity == 0) return compute(f, g);
  // Curves are canonicalized (breakpoint-minimized) at construction, so
  // structurally equivalent representations already hash identically. On
  // top of that, commutative operators key the unordered operand pair:
  // the hash combines symmetrically and the collision check accepts the
  // transposed pair, so (f, g) and (g, f) share one entry.
  const bool commutative = op == CacheOp::kConvolve ||
                           op == CacheOp::kMinimum ||
                           op == CacheOp::kMaximum || op == CacheOp::kAdd;
  std::uint64_t ha = structural_hash(f);
  std::uint64_t hb = structural_hash(g);
  if (commutative && hb < ha) std::swap(ha, hb);
  const std::uint64_t key =
      mix((ha * 0x2545F4914F6CDD1DULL) ^ (hb + 0x9E3779B97F4A7C15ULL) ^
          (static_cast<std::uint64_t>(op) << 56));
  {
    util::MutexLock lock(impl_->mutex);
    const auto it = impl_->index.find(key);
    if (it != impl_->index.end() &&
        ((it->second->f == f && it->second->g == g) ||
         (commutative && it->second->f == g && it->second->g == f))) {
      ++impl_->hits;
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      SC_OBS_COUNT("cache.hits", 1);
      switch (f.shape_class()) {
        case ShapeClass::kConvex:
          SC_OBS_COUNT("cache.hits.shape.convex", 1);
          break;
        case ShapeClass::kConcave:
          SC_OBS_COUNT("cache.hits.shape.concave", 1);
          break;
        case ShapeClass::kGeneral:
          SC_OBS_COUNT("cache.hits.shape.general", 1);
          break;
      }
      return it->second->result;
    }
    ++impl_->misses;
  }
  SC_OBS_COUNT("cache.misses", 1);
  // Compute outside the lock: operators are expensive and may themselves
  // fan out to the thread pool (or consult the cache re-entrantly).
  // Concurrent duplicate computation of the same pair is benign — both
  // threads produce the identical result; the insert below keeps one.
  Curve result = compute(f, g);
  {
    util::MutexLock lock(impl_->mutex);
    const auto it = impl_->index.find(key);
    if (it != impl_->index.end()) {
      // Either a concurrent computation of the same pair landed first, or
      // the slot holds a hash-colliding pair; replace with the newest.
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      it->second->f = f;
      it->second->g = g;
      it->second->result = result;
      return result;
    }
    impl_->lru.push_front(Impl::Entry{key, f, g, result});
    impl_->index.emplace(key, impl_->lru.begin());
    while (impl_->lru.size() > impl_->capacity) {
      impl_->index.erase(impl_->lru.back().key);
      impl_->lru.pop_back();
    }
    SC_OBS_GAUGE("cache.entries", impl_->lru.size());
  }
  return result;
}

CurveOpCache::Stats CurveOpCache::stats() const {
  util::MutexLock lock(impl_->mutex);
  return Stats{impl_->hits, impl_->misses, impl_->lru.size(),
               impl_->capacity};
}

void CurveOpCache::clear() {
  util::MutexLock lock(impl_->mutex);
  impl_->index.clear();
  impl_->lru.clear();
}

CurveOpCache& CurveOpCache::global() {
  static CurveOpCache cache(kGlobalCacheEntries);
  return cache;
}

Curve cached_convolve(const Curve& f, const Curve& g) {
  return CurveOpCache::global().get_or_compute(
      CacheOp::kConvolve, f, g,
      [](const Curve& a, const Curve& b) { return convolve(a, b); });
}

Curve cached_deconvolve(const Curve& f, const Curve& g) {
  return CurveOpCache::global().get_or_compute(
      CacheOp::kDeconvolve, f, g,
      [](const Curve& a, const Curve& b) { return deconvolve(a, b); });
}

}  // namespace streamcalc::minplus
