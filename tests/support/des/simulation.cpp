#include "des/simulation.hpp"

namespace streamcalc::des {

void Process::promise_type::unhandled_exception() {
  if (sim != nullptr && !sim->pending_exception_) {
    sim->pending_exception_ = std::current_exception();
  }
}

Simulation::~Simulation() {
  // Drop the calendar first so no handle is resumed, then free all frames
  // (destroying a suspended coroutine is well-defined).
  calendar_ = {};
  for (auto h : owned_) h.destroy();
}

void Simulation::spawn(Process p) {
  auto h = p.release();
  util::require(static_cast<bool>(h), "spawn() requires a live process");
  h.promise().sim = this;
  owned_.push_back(h);
  schedule_now(h);
}

void Simulation::schedule(double t, std::coroutine_handle<> h) {
  util::require(t >= now_, "cannot schedule an event in the past");
  calendar_.push(ScheduledEvent{t, next_seq_++, h});
}

void Simulation::step(const ScheduledEvent& ev) {
  now_ = ev.time;
  ++executed_;
  if (!ev.handle.done()) ev.handle.resume();
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Simulation::run() {
  while (!calendar_.empty()) {
    const ScheduledEvent ev = calendar_.top();
    calendar_.pop();
    step(ev);
  }
}

void Simulation::run_until(double t) {
  util::require(t >= now_, "run_until target must be >= now");
  while (!calendar_.empty() && calendar_.top().time <= t) {
    const ScheduledEvent ev = calendar_.top();
    calendar_.pop();
    step(ev);
  }
  now_ = t;
}

}  // namespace streamcalc::des
