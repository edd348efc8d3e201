#include "des/simulation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/error.hpp"

namespace streamcalc::des {
namespace {

Process record_times(Simulation& sim, std::vector<double>& out, double dt,
                     int count) {
  for (int i = 0; i < count; ++i) {
    co_await sim.timeout(dt);
    out.push_back(sim.now());
  }
}

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulation, TimeoutAdvancesClock) {
  Simulation sim;
  std::vector<double> times;
  sim.spawn(record_times(sim, times, 1.5, 3));
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.5, 3.0, 4.5}));
  EXPECT_EQ(sim.now(), 4.5);
}

TEST(Simulation, ZeroTimeoutRunsInOrder) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>& o, int id) -> Process {
    co_await s.timeout(0.0);
    o.push_back(id);
  };
  sim.spawn(proc(sim, order, 1));
  sim.spawn(proc(sim, order, 2));
  sim.spawn(proc(sim, order, 3));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));  // FIFO at equal times
}

TEST(Simulation, RunUntilStopsAtTarget) {
  Simulation sim;
  std::vector<double> times;
  sim.spawn(record_times(sim, times, 1.0, 10));
  sim.run_until(3.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sim.now(), 3.5);
  sim.run_until(5.0);
  EXPECT_EQ(times.size(), 5u);
}

TEST(Simulation, EventsAtExactBoundaryIncluded) {
  Simulation sim;
  std::vector<double> times;
  sim.spawn(record_times(sim, times, 1.0, 5));
  sim.run_until(3.0);
  EXPECT_EQ(times.size(), 3u);
}

TEST(Simulation, ExceptionPropagatesFromRun) {
  Simulation sim;
  auto bad = [](Simulation& s) -> Process {
    co_await s.timeout(1.0);
    throw std::runtime_error("boom");
  };
  sim.spawn(bad(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, RejectsNegativeTimeout) {
  Simulation sim;
  EXPECT_THROW(sim.timeout(-1.0), util::PreconditionError);
}

TEST(Simulation, RejectsRunUntilThePast) {
  Simulation sim;
  std::vector<double> times;
  sim.spawn(record_times(sim, times, 1.0, 2));
  sim.run();
  EXPECT_THROW(sim.run_until(1.0), util::PreconditionError);
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation sim;
  std::vector<double> times;
  sim.spawn(record_times(sim, times, 1.0, 4));
  sim.run();
  // 1 spawn event + 4 timeouts.
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulation, UnfinishedProcessesDestroyedCleanly) {
  // A process suspended mid-timeout must be destroyed without leaks or
  // crashes when the Simulation goes away (exercised under ASan in CI).
  Simulation sim;
  std::vector<double> times;
  sim.spawn(record_times(sim, times, 1.0, 1000));
  sim.run_until(2.5);
  EXPECT_EQ(times.size(), 2u);
  // sim destructor runs here with the process still pending
}

TEST(Simulation, SubProcessExceptionSurfacesFromRunUntil) {
  Simulation sim;
  auto inner = [](Simulation& s) -> Process {
    co_await s.timeout(0.5);
    throw std::runtime_error("inner");
  };
  auto outer = [](Simulation& s, auto inner_fn) -> Process {
    s.spawn(inner_fn(s));
    co_await s.timeout(10.0);
  };
  sim.spawn(outer(sim, inner));
  EXPECT_THROW(sim.run_until(1.0), std::runtime_error);
}

TEST(Simulation, ManyProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::pair<double, int>> log;
  auto proc = [](Simulation& s, std::vector<std::pair<double, int>>& l,
                 int id, double dt) -> Process {
    for (int i = 0; i < 3; ++i) {
      co_await s.timeout(dt);
      l.emplace_back(s.now(), id);
    }
  };
  sim.spawn(proc(sim, log, 0, 1.0));
  sim.spawn(proc(sim, log, 1, 1.5));
  sim.run();
  // At t=3.0 both processes fire; process 1 scheduled its event earlier
  // (at t=1.5, vs. process 0 at t=2.0), so it resumes first.
  const std::vector<std::pair<double, int>> expected{
      {1.0, 0}, {1.5, 1}, {2.0, 0}, {3.0, 1}, {3.0, 0}, {4.5, 1}};
  EXPECT_EQ(log, expected);
}

}  // namespace
}  // namespace streamcalc::des
