// Event-queue core of the discrete-event engine.
//
// Time is virtual (seconds as double); events at equal times run in
// scheduling order (a monotone sequence number breaks ties), which makes
// every simulation fully deterministic.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/task.hpp"

namespace mqs::sim {

/// The engine's coroutine type (common/task.hpp), under its historical name.
using ::mqs::Task;

using Time = double;

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now).
  void schedule(Time at, std::function<void()> fn);
  void scheduleAfter(Time delay, std::function<void()> fn) {
    schedule(now_ + delay, std::move(fn));
  }

  /// Start a root coroutine; the simulator owns its frame until it
  /// finishes. The task begins running at the current time, immediately.
  void spawn(Task<void> task);

  /// Awaitable: resume after `seconds` of virtual time.
  struct DelayAwaiter {
    Simulator* sim;
    Time seconds;
    bool await_ready() const noexcept { return seconds <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->scheduleAfter(seconds, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter delay(Time seconds) {
    return DelayAwaiter{this, seconds};
  }

  /// Run until the event queue drains. Throws if any spawned root task
  /// terminated with an exception.
  void run();

  /// Process a single event; false when the queue is empty.
  bool step();

  [[nodiscard]] std::uint64_t processedEvents() const { return processed_; }

 private:
  void reapFinishedRoots();

  struct Event {
    Time at = 0.0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct EventCmp {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap on time
      return a.seq > b.seq;
    }
  };

  Time now_ = 0.0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventCmp> queue_;
  std::vector<Task<void>::Handle> roots_;
};

}  // namespace mqs::sim
