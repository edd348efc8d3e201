// Discrete-event simulation kernel: a C++20-coroutine equivalent of the
// SimPy process model the paper uses for its simulator ([29], Section 4.2).
// The tests run the streamsim pipeline on it (des/pipeline.hpp) as the
// oracle of the max-plus recurrence that simulate() runs.
//
// A *process* is a coroutine returning des::Process. It advances simulated
// time by awaiting:
//
//   co_await sim.timeout(dt);     // resume dt simulated seconds later
//   co_await store.get();         // resume when an item is available
//   co_await store.put(item);     // resume when capacity is available
//
// The kernel is single-threaded and deterministic: events at equal times
// fire in schedule order (a monotonically increasing sequence number breaks
// ties), so simulation results are exactly reproducible.
//
// Ownership: a Process owns its coroutine frame until it is spawn()ed, at
// which point the Simulation takes ownership and keeps the frame alive until
// the Simulation is destroyed. Exceptions escaping a process are captured
// and rethrown from run()/run_until().
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <queue>
#include <vector>

#include "util/error.hpp"

namespace streamcalc::des {

class Simulation;

/// Coroutine type for simulation processes. See file comment for the
/// ownership protocol.
class Process {
 public:
  struct promise_type {
    Simulation* sim = nullptr;

    Process get_return_object() {
      return Process(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    /// Stays suspended: the Simulation owns and later destroys the frame.
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception();
  };

  Process(Process&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = other.handle_;
      other.handle_ = nullptr;
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

 private:
  friend class Simulation;
  explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  /// Transfers frame ownership to the Simulation (called by spawn()).
  std::coroutine_handle<promise_type> release() {
    auto h = handle_;
    handle_ = nullptr;
    return h;
  }
  std::coroutine_handle<promise_type> handle_;
};

/// The event calendar and simulated clock.
class Simulation {
 public:
  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  double now() const { return now_; }

  /// Registers a process and schedules its first step at the current time.
  void spawn(Process p);

  /// Awaitable that resumes the awaiting process after `dt` simulated
  /// seconds. Requires dt >= 0.
  struct Timeout {
    Simulation* sim;
    double dt;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim->schedule(sim->now_ + dt, h);
    }
    void await_resume() const noexcept {}
  };
  Timeout timeout(double dt) {
    util::require(dt >= 0.0, "timeout requires dt >= 0");
    return Timeout{this, dt};
  }

  /// Schedules `h` to resume at absolute time `t` (>= now).
  void schedule(double t, std::coroutine_handle<> h);
  /// Schedules `h` at the current time (after already-queued same-time
  /// events).
  void schedule_now(std::coroutine_handle<> h) { schedule(now_, h); }

  /// Runs until the calendar is empty. Rethrows any process exception.
  void run();
  /// Runs all events with time <= t, then advances the clock to exactly t.
  void run_until(double t);

  /// Number of events executed so far.
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct ScheduledEvent {
    double time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const ScheduledEvent& o) const {
      return time > o.time || (time == o.time && seq > o.seq);
    }
  };

  void step(const ScheduledEvent& ev);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<ScheduledEvent, std::vector<ScheduledEvent>,
                      std::greater<>>
      calendar_;
  std::vector<std::coroutine_handle<Process::promise_type>> owned_;
  std::exception_ptr pending_exception_;

  friend struct Process::promise_type;
};

}  // namespace streamcalc::des
