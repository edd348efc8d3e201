// Fork/join over an index range: util::parallel_for.
//
// The replication runner is the one caller: it runs N independent
// simulations, each writing its own result slot, and merges the slots in
// index order, so its output cannot depend on the thread count. The
// min-plus curve algebra runs serially (real operands stay a few pieces,
// far below the size where a fan-out pays), and serve runs each
// connection's frames in order on that connection's reader thread.
//
// Each call starts its own threads and joins them before it returns, so
// calls share no state: indices are claimed from one atomic counter local
// to the call, and a call nested inside another starts threads of its
// own instead of waiting on a queue its caller holds.
#pragma once

#include <cstddef>
#include <functional>

namespace streamcalc::util {

/// Runs fn(i) for every i in [0, n) on min(threads, n) threads: the
/// calling thread plus min(threads, n) - 1 std::jthreads, each claiming
/// the next unclaimed index. threads == 0 means hardware concurrency;
/// threads == 1 runs every index inline on the caller, in index order.
/// Every index runs even when some throw; afterwards the exception of the
/// lowest throwing index is rethrown, so the same failure is reported
/// whatever the schedule.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace streamcalc::util
