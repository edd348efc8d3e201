#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace streamcalc::util {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {0u, 1u, 2u, 3u, 8u}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelForHandlesNonZeroBeginAndTinyRanges) {
  // A sub-range [5, 17) is an n = 12 call whose body adds the offset; more
  // threads than indices still touch each index once and nothing outside.
  for (const unsigned threads : {2u, 4u, 32u}) {
    std::vector<std::atomic<int>> hits(20);
    parallel_for(17 - 5, threads,
                 [&](std::size_t i) { hits[5 + i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), (i >= 5 && i < 17) ? 1 : 0)
          << "threads=" << threads << " i=" << i;
    }
  }
  // Empty range is a no-op, not an error.
  for (const unsigned threads : {0u, 1u, 8u}) {
    parallel_for(0, threads, [](std::size_t) { FAIL(); });
  }
}

TEST(ThreadPool, SerialModeRunsInlineAndCoversRange) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  parallel_for(100, 1, [&](std::size_t i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], caller) << "i=" << i;
  }
}

TEST(ThreadPool, ExceptionInChunkPropagatesToCaller) {
  // Index 13 throws on every run, whichever thread reaches 40 first, and
  // no index is skipped because another one threw.
  for (int run = 0; run < 20; ++run) {
    std::vector<std::atomic<int>> hits(64);
    try {
      parallel_for(64, 4, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 13) throw std::runtime_error("thirteen");
        if (i == 40) throw std::runtime_error("forty");
      });
      FAIL() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "thirteen") << "run " << run;
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "run " << run << " i=" << i;
    }
  }
}

TEST(ThreadPool, NestedParallelForCompletesWithoutDeadlock) {
  std::vector<std::atomic<int>> hits(16 * 8);
  parallel_for(16, 3, [&](std::size_t i) {
    parallel_for(8, 2, [&](std::size_t j) { hits[i * 8 + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace streamcalc::util
