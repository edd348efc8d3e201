// Annotated synchronization primitives: thin wrappers over the standard
// library types that carry Clang thread-safety capabilities, so lock
// discipline is checked at compile time (see util/thread_annotations.hpp
// and DESIGN.md §8).
//
// std::mutex itself is not annotated as a capability in libstdc++/libc++,
// which makes GUARDED_BY(std_mutex_member) useless — the analysis can only
// track acquisitions of types marked SC_CAPABILITY. These wrappers add the
// attributes and nothing else: no extra state, no behavior change, and they
// compile to the exact same code.
//
//   Mutex      — SC_CAPABILITY wrapper over std::mutex.
//   MutexLock  — SC_SCOPED_CAPABILITY lock_guard equivalent.
#pragma once

#include <mutex>

#include "util/thread_annotations.hpp"

namespace streamcalc::util {

/// Annotated exclusive mutex. Same cost and semantics as std::mutex.
class SC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SC_ACQUIRE() { m_.lock(); }
  void unlock() SC_RELEASE() { m_.unlock(); }
  bool try_lock() SC_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// RAII scoped lock over Mutex (lock_guard equivalent, annotated).
class SC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SC_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace streamcalc::util
