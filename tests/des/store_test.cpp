#include "des/store.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace streamcalc::des {
namespace {

TEST(Store, RejectsZeroCapacity) {
  Simulation sim;
  EXPECT_THROW(Store<int>(sim, 0), util::PreconditionError);
}

TEST(Store, GetBlocksUntilPut) {
  Simulation sim;
  Store<int> store(sim);
  std::vector<std::pair<double, int>> got;
  auto consumer = [](Simulation& s, Store<int>& st,
                     std::vector<std::pair<double, int>>& g) -> Process {
    for (int i = 0; i < 2; ++i) {
      int v = co_await st.get();
      g.emplace_back(s.now(), v);
    }
  };
  auto producer = [](Simulation& s, Store<int>& st) -> Process {
    co_await s.timeout(1.0);
    co_await st.put(10);
    co_await s.timeout(2.0);
    co_await st.put(20);
  };
  sim.spawn(consumer(sim, store, got));
  sim.spawn(producer(sim, store));
  sim.run();
  const std::vector<std::pair<double, int>> expected{{1.0, 10}, {3.0, 20}};
  EXPECT_EQ(got, expected);
}

TEST(Store, PutBlocksWhenFullBackpressure) {
  Simulation sim;
  Store<int> store(sim, 1);
  std::vector<double> put_times;
  auto producer = [](Simulation& s, Store<int>& st,
                     std::vector<double>& t) -> Process {
    for (int i = 0; i < 3; ++i) {
      co_await st.put(i);
      t.push_back(s.now());
    }
  };
  auto consumer = [](Simulation& s, Store<int>& st) -> Process {
    for (int i = 0; i < 3; ++i) {
      co_await s.timeout(2.0);
      (void)co_await st.get();
    }
  };
  sim.spawn(producer(sim, store, put_times));
  sim.spawn(consumer(sim, store));
  sim.run();
  // First put at t=0 (space); second blocks until the get at t=2; third
  // until t=4.
  EXPECT_EQ(put_times, (std::vector<double>{0.0, 2.0, 4.0}));
}

TEST(Store, MultipleGettersServedInOrder) {
  Simulation sim;
  Store<std::string> store(sim);
  std::vector<std::string> results;
  // Note: coroutine parameters must be taken by value when the argument is
  // a temporary — a reference parameter would dangle after the first
  // suspension.
  auto getter = [](Store<std::string>& st, std::vector<std::string>& r,
                   std::string tag) -> Process {
    std::string v = co_await st.get();
    r.push_back(tag + ":" + v);
  };
  auto putter = [](Simulation& s, Store<std::string>& st) -> Process {
    co_await s.timeout(1.0);
    co_await st.put("a");
    co_await s.timeout(1.0);
    co_await st.put("b");
  };
  sim.spawn(getter(store, results, "g1"));
  sim.spawn(getter(store, results, "g2"));
  sim.spawn(putter(sim, store));
  sim.run();
  EXPECT_EQ(results, (std::vector<std::string>{"g1:a", "g2:b"}));
}

TEST(Store, BlockedPuttersAdmittedInOrder) {
  Simulation sim;
  Store<int> store(sim, 1);
  std::vector<int> drained;
  auto putter = [](Store<int>& st, int v) -> Process {
    co_await st.put(v);
  };
  auto consumer = [](Simulation& s, Store<int>& st,
                     std::vector<int>& d) -> Process {
    for (int i = 0; i < 3; ++i) {
      co_await s.timeout(1.0);
      d.push_back(co_await st.get());
    }
  };
  // The first put fills the store; the next two queue behind it.
  sim.spawn(putter(store, 0));
  sim.spawn(putter(store, 1));
  sim.spawn(putter(store, 2));
  sim.spawn(consumer(sim, store, drained));
  sim.run();
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2}));
}

TEST(Store, MoveOnlyItemsSupported) {
  Simulation sim;
  Store<std::unique_ptr<int>> store(sim);
  int got = 0;
  auto putter = [](Store<std::unique_ptr<int>>& st) -> Process {
    co_await st.put(std::make_unique<int>(7));
  };
  auto getter = [](Store<std::unique_ptr<int>>& st, int& g) -> Process {
    const std::unique_ptr<int> v = co_await st.get();
    g = *v;
  };
  sim.spawn(putter(store));
  sim.spawn(getter(store, got));
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(Store, TokenStoreLimitsConcurrentHolders) {
  // A store of capacity n used as n units (as kernels/arq_link does): put
  // acquires a unit, an immediately ready get releases it, and a waiting
  // putter takes the freed unit at the release instant, in FIFO order.
  struct Token {};
  Simulation sim;
  Store<Token> units(sim, 2);
  std::vector<std::pair<double, int>> starts;
  auto worker = [](Simulation& s, Store<Token>& u,
                   std::vector<std::pair<double, int>>& log,
                   int id) -> Process {
    co_await u.put(Token{});
    log.emplace_back(s.now(), id);
    co_await s.timeout(1.0);
    (void)co_await u.get();
  };
  for (int i = 0; i < 5; ++i) sim.spawn(worker(sim, units, starts, i));
  sim.run();
  const std::vector<std::pair<double, int>> expected{
      {0.0, 0}, {0.0, 1}, {1.0, 2}, {1.0, 3}, {2.0, 4}};
  EXPECT_EQ(starts, expected);
}

}  // namespace
}  // namespace streamcalc::des
