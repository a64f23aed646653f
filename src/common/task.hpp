// Coroutine task type shared by both engines' plan-step interpreter
// (query::PlanRunner).
//
// Task<T> is a lazily-started coroutine: nothing runs until it is awaited
// (or resumed by sim::Simulator::spawn, or run by syncWait). Awaiting a
// child task suspends the parent until the child reaches final_suspend,
// then transfers control back (symmetric transfer) and delivers the child's
// value or exception. A task tree runs on one thread at a time, so no
// synchronization is needed: the discrete-event engine interleaves many on
// its single thread, and the threaded server runs each query's tree to
// completion on its worker with syncWait.
#pragma once

#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>

#include "common/check.hpp"

namespace mqs {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  T value{};
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a task starts it and suspends the awaiter until it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // start the child now
      }
      T await_resume() {
        if (handle.promise().exception) {
          std::rethrow_exception(handle.promise().exception);
        }
        if constexpr (!std::is_void_v<T>) {
          return std::move(handle.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }

  /// Release ownership (used by Simulator::spawn, which manages lifetime).
  Handle release() { return std::exchange(handle_, {}); }

  /// Run the task to completion on the calling thread and return its value
  /// (or rethrow its exception). Every awaitable inside must complete
  /// inline (e.g. Ready, std::suspend_never, or a task built only from
  /// those); a task that suspends on an external event fails the check.
  T syncWait() && {
    MQS_CHECK(handle_ && !handle_.done());
    handle_.resume();
    MQS_CHECK_MSG(handle_.done(), "syncWait: the task suspended");
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(handle_.promise().value);
    }
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace detail {
template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}
}  // namespace detail

/// An awaitable whose value is already there: lets a synchronous caller
/// answer a hook that a coroutine caller answers with a Task. (For a void
/// hook, std::suspend_never does the same.)
template <typename T>
struct Ready {
  T value;
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() { return std::move(value); }
};

}  // namespace mqs
