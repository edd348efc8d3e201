#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

namespace streamcalc::util {
namespace {

TEST(ThreadPool, SerialModeRunsInlineAndCoversRange) {
  ThreadPool pool(0);
  EXPECT_TRUE(pool.serial());
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, hits.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesNonZeroBeginAndTinyRanges) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(20);
  pool.parallel_for(5, 17, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 17) ? 1 : 0) << "i=" << i;
  }
  // Empty range is a no-op, not an error.
  pool.parallel_for(3, 3, 1, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, ExceptionInChunkPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 64, 1,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives and keeps working after the failed fork/join.
  std::atomic<int> count{0};
  pool.parallel_for(0, 64, 1, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64 * 8);
  pool.parallel_for(0, 64, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // A nested fork from a worker must run inline instead of queuing
      // behind its own parent.
      pool.parallel_for(0, 8, 2, [&](std::size_t jlo, std::size_t jhi) {
        for (std::size_t j = jlo; j < jhi; ++j) hits[i * 8 + j].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  ThreadPool& pool = ThreadPool::global();
  std::atomic<int> count{0};
  pool.parallel_for(0, 128, 8, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 128);
}

}  // namespace
}  // namespace streamcalc::util
