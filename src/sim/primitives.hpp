// Simulation primitives: one-shot triggers, counting resources, FCFS
// servers. These model the SMP's processors (Semaphore with P permits) and
// the disk farm (one FcfsServer per disk).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/simulator.hpp"
#include "common/task.hpp"

namespace mqs::sim {

/// One-shot broadcast event (e.g. "query q finished"; "page p arrived").
/// After fire(), waits complete immediately.
class Trigger {
 public:
  explicit Trigger(Simulator& sim) : sim_(&sim) {}

  [[nodiscard]] bool fired() const { return fired_; }

  /// Fire once; resumes every waiter (as events at the current time).
  void fire();

  struct Awaiter {
    Trigger* trigger;
    bool await_ready() const noexcept { return trigger->fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      trigger->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter wait() { return Awaiter{this}; }

 private:
  Simulator* sim_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// FIFO counting semaphore with busy-time accounting. Models a pool of
/// identical resources (CPUs). A permit released while someone queues is
/// handed to the head waiter directly, preserving FIFO order.
class Semaphore {
 public:
  Semaphore(Simulator& sim, int permits);

  struct Awaiter {
    Semaphore* sem;
    bool await_ready() {
      if (sem->permits_ > 0 && sem->waiters_.empty()) {
        sem->take();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter acquire() { return Awaiter{this}; }
  void release();

  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] int available() const { return permits_; }
  [[nodiscard]] std::size_t queued() const { return waiters_.size(); }

  /// Integral of (busy permits) dt since construction; divide by
  /// (capacity * elapsed) for utilization.
  [[nodiscard]] double busyIntegral() const;

 private:
  void take();
  void accrue();

  Simulator* sim_;
  int capacity_;
  int permits_;
  std::deque<std::coroutine_handle<>> waiters_;
  double busyIntegral_ = 0.0;
  Time lastChange_ = 0.0;
};

/// A single FCFS service station (one disk). `service(d)` queues the caller
/// and occupies the station for `d` seconds of virtual time.
class FcfsServer {
 public:
  explicit FcfsServer(Simulator& sim) : sim_(&sim), gate_(sim, 1) {}

  [[nodiscard]] Task<void> service(Time duration);

  [[nodiscard]] double busyIntegral() const { return gate_.busyIntegral(); }
  [[nodiscard]] std::size_t queueLength() const { return gate_.queued(); }
  [[nodiscard]] std::uint64_t requestsServed() const { return served_; }

 private:
  Simulator* sim_;
  Semaphore gate_;
  std::uint64_t served_ = 0;
};

}  // namespace mqs::sim
