#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/obs.hpp"
#include "util/context.hpp"
#include "util/error.hpp"

namespace streamcalc::util {

namespace {

thread_local bool t_on_worker = false;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back(
        [this](std::stop_token stop) { worker_loop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  // Join before member destruction: workers_ is declared first, so the
  // implicit jthread join would run *after* mutex_ and the condvars are
  // destroyed — while late workers may still be signalling them. Workers
  // drain the queue before returning so no submitted task (whose state
  // may live on a submitter's stack) is lost.
  for (std::jthread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop(std::stop_token /*stop*/) {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_available_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (serial()) {
    task();
    return;
  }
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    SC_OBS_GAUGE("pool.queue_depth", queue_.size());
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) idle_.wait(mutex_);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t count = end - begin;
  const std::size_t chunks = (count + grain - 1) / grain;
  SC_OBS_SPAN("pool", "parallel_for");
  SC_OBS_COUNT("pool.parallel_for.calls", 1);
  SC_OBS_COUNT("pool.chunks", chunks);
  // Chunk boundaries are fully determined by (begin, end, grain); running
  // inline therefore executes the exact same chunks in index order, which
  // is what makes serial mode the bit-identical reference for parallel
  // runs (callers write per-chunk results to per-index slots).
  if (chunks < 2 || serial() || on_worker_thread()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * grain;
      SC_OBS_SPAN("pool", "chunk");
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }

  struct State {
    Mutex m;
    CondVar done_cv;
    std::size_t next SC_GUARDED_BY(m) = 0;  ///< next chunk index to claim
    std::size_t pending SC_GUARDED_BY(m) = 0;  ///< chunks not yet finished
    std::size_t live_tasks SC_GUARDED_BY(m) =
        0;  ///< queued runner tasks not yet returned
    std::exception_ptr error SC_GUARDED_BY(m);
  } state;
  {
    MutexLock lock(state.m);
    state.pending = chunks;
  }

  const auto run_chunks = [&]() {
    for (;;) {
      std::size_t c;
      {
        MutexLock lock(state.m);
        if (state.next >= chunks) return;
        c = state.next++;
      }
      const std::size_t lo = begin + c * grain;
      try {
        SC_OBS_SPAN("pool", "chunk");
        fn(lo, std::min(end, lo + grain));
      } catch (...) {
        MutexLock lock(state.m);
        if (!state.error) state.error = std::current_exception();
      }
      {
        MutexLock lock(state.m);
        if (--state.pending == 0) state.done_cv.notify_all();
      }
    }
  };

  const std::size_t helpers =
      std::min<std::size_t>(workers_.size(), chunks - 1);
  {
    MutexLock lock(state.m);
    state.live_tasks = helpers;
  }
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([&state, run_chunks] {
      run_chunks();
      MutexLock lock(state.m);
      if (--state.live_tasks == 0) state.done_cv.notify_all();
    });
  }
  run_chunks();
  MutexLock lock(state.m);
  while (state.pending != 0 || state.live_tasks != 0) {
    state.done_cv.wait(state.m);
  }
  if (state.error) std::rethrow_exception(state.error);
}

ThreadPool& ThreadPool::global() {
  // Lazily constructed from the active Context; a resolved count of 1
  // ("serial") means no workers at all, so the pool degenerates to inline
  // execution. A malformed STREAMCALC_* variable throws out of the
  // initializer — failing the run loudly is the point (see util/env.hpp).
  static ThreadPool pool(Context::active().pool_workers());
  return pool;
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

}  // namespace streamcalc::util
