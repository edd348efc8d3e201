// Bounded FIFO channel between simulation processes — the equivalent of
// SimPy's Store, and the queue the Mercator system inserts between pipeline
// stages (paper, Section 4.1). A full store blocks putters, which is how
// backpressure propagates upstream in the simulated pipelines.
#pragma once

#include <coroutine>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "des/simulation.hpp"
#include "util/error.hpp"

namespace streamcalc::des {

/// FIFO store with finite or unlimited capacity. Items are delivered to
/// getters in arrival order; blocked putters are admitted in arrival order.
template <typename T>
class Store {
 public:
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  Store(Simulation& sim, std::size_t capacity = kUnlimited)
      : sim_(&sim), capacity_(capacity) {
    util::require(capacity >= 1, "Store capacity must be >= 1");
  }
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Awaitable put: completes immediately when capacity allows, otherwise
  /// suspends until a get frees a slot.
  struct [[nodiscard]] PutAwaiter {
    Store* store;
    T item;
    bool await_ready() {
      if (!store->can_accept()) return false;
      store->commit_put(std::move(item));
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      store->putters_.push_back(WaitingPut{std::move(item), h});
    }
    void await_resume() const noexcept {}
  };
  PutAwaiter put(T item) { return PutAwaiter{this, std::move(item)}; }

  /// Awaitable get: completes immediately when an item is queued, otherwise
  /// suspends until one arrives. Resumes with the item.
  struct [[nodiscard]] GetAwaiter {
    Store* store;
    std::optional<T> result;
    bool await_ready() {
      if (store->items_.empty()) return false;
      result = store->commit_get();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      store->getters_.push_back(WaitingGet{this, h});
    }
    T await_resume() {
      SC_ASSERT(result.has_value());
      return std::move(*result);
    }
  };
  GetAwaiter get() { return GetAwaiter{this, std::nullopt}; }

 private:
  struct WaitingPut {
    T item;
    std::coroutine_handle<> handle;
  };
  struct WaitingGet {
    GetAwaiter* awaiter;
    std::coroutine_handle<> handle;
  };

  /// False while putters queue, so a put never jumps them.
  bool can_accept() const {
    return putters_.empty() && items_.size() < capacity_;
  }

  void commit_put(T item) {
    if (!getters_.empty()) {
      // Deliver directly to the oldest waiting getter.
      WaitingGet g = getters_.front();
      getters_.pop_front();
      g.awaiter->result = std::move(item);
      sim_->schedule_now(g.handle);
      return;
    }
    items_.push_back(std::move(item));
  }

  T commit_get() {
    T item = std::move(items_.front());
    items_.pop_front();
    if (!putters_.empty() && items_.size() < capacity_) {
      WaitingPut p = std::move(putters_.front());
      putters_.pop_front();
      commit_put(std::move(p.item));
      sim_->schedule_now(p.handle);
    }
    return item;
  }

  Simulation* sim_;
  std::size_t capacity_;
  std::deque<T> items_;
  std::deque<WaitingPut> putters_;
  std::deque<WaitingGet> getters_;
};

}  // namespace streamcalc::des
