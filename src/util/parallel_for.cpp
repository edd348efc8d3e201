#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace streamcalc::util {

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // One slot per index: each is written only by the thread that ran that
  // index, and read after the join below.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    const std::size_t helpers = std::min<std::size_t>(threads, n) - 1;
    std::vector<std::jthread> workers;
    workers.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) workers.emplace_back(drain);
    drain();
  }  // the jthreads join here
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace streamcalc::util
