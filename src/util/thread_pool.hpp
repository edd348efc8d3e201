// Fixed-size thread pool with a deterministic parallel_for primitive.
//
// Design goals, in order:
//
//   1. *Determinism.* Callers split work into chunks whose boundaries depend
//      only on the input size and grain — never on the number of threads or
//      on scheduling. Each chunk writes to its own output slot; the caller
//      merges slots in index order. Any algorithm written this way produces
//      bit-identical results with 1 thread, N threads, or in serial mode.
//   2. *Safety under nesting.* Serve's request batches and the replication
//      runner both use the pool, and a task may itself call parallel_for;
//      a parallel_for issued from inside a pool worker runs inline on that
//      worker instead of deadlocking on the queue. The min-plus curve
//      algebra does not use the pool: real operands stay a few pieces, far
//      below the size where a fan-out would pay for itself.
//   3. *Small surface.* A fixed set of std::jthread workers, a mutex-guarded
//      task queue, parallel_for + submit. No work stealing, no futures-heavy
//      API — the callers need fork/join over index ranges, nothing more.
//
// All shared state is guarded by an annotated util::Mutex and checked by
// Clang's thread-safety analysis (-Werror=thread-safety in CI); see
// util/thread_annotations.hpp and DESIGN.md §8.
//
// The global() instance is lazily sized from Context::active().threads,
// i.e. STREAMCALC_THREADS unless a Context was installed first: unset or
// "0" = hardware concurrency, "1" or
// "serial" = serial mode (no workers; everything runs inline — useful for
// reproducibility debugging). Any other non-numeric value is rejected with
// an error (see util/env.hpp).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::util {

class ThreadPool {
 public:
  /// A pool with `threads` workers; 0 = serial mode (no worker threads,
  /// all work runs inline on the calling thread).
  explicit ThreadPool(unsigned threads);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 in serial mode).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// True when no workers exist and every call runs inline.
  bool serial() const { return workers_.empty(); }

  /// Runs fn(lo, hi) over [begin, end) split into chunks of at least
  /// `grain` indices. Chunk boundaries depend only on (begin, end, grain),
  /// not on thread count; the calling thread participates. Blocks until
  /// every chunk completes; the first exception thrown by any chunk is
  /// rethrown on the caller (remaining chunks still run to completion).
  ///
  /// Runs entirely inline when: the pool is serial, the range has fewer
  /// than 2 chunks, or the caller is itself a pool worker (nested
  /// parallelism runs inline rather than deadlocking).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn)
      SC_EXCLUDES(mutex_);

  /// Enqueues a task for a worker (runs inline in serial mode). Fire and
  /// forget; use parallel_for for fork/join work.
  void submit(std::function<void()> task) SC_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle() SC_EXCLUDES(mutex_);

  /// Process-wide pool, lazily created on first use and sized from
  /// Context::active() (install() a Context before the first use; see
  /// file comment).
  static ThreadPool& global();

  /// True while the current thread is executing inside a pool worker.
  static bool on_worker_thread();

 private:
  void worker_loop(std::stop_token stop) SC_EXCLUDES(mutex_);

  std::vector<std::jthread> workers_;
  mutable Mutex mutex_;
  std::deque<std::function<void()>> queue_ SC_GUARDED_BY(mutex_);
  CondVar work_available_;
  CondVar idle_;
  std::size_t active_ SC_GUARDED_BY(mutex_) =
      0;  ///< tasks currently executing on workers
  bool stopping_ SC_GUARDED_BY(mutex_) = false;
};

}  // namespace streamcalc::util
