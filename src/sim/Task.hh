/**
 * @file
 * Coroutine-based simulation processes.
 *
 * A Task is a C++20 coroutine representing one simulated thread of
 * control (a host program, a switch handler, a disk servo loop...).
 * A ValueTask<T> additionally produces a value for its awaiter.
 *
 * Tasks are lazy: they run only once spawned on a Simulation or
 * co_awaited from a running task. Awaiting `Delay{t}` suspends the
 * task for t ticks of simulated time; synchronization objects in
 * Sync.hh provide inter-task communication.
 */

#ifndef SAN_SIM_TASK_HH
#define SAN_SIM_TASK_HH

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/Types.hh"

namespace san::sim {

class Simulation;
class Task;
template <typename T> class ValueTask;

/** Awaitable: suspend the current task for a fixed number of ticks. */
struct Delay {
    Tick ticks;
};

namespace detail {

struct DelayAwaiter;
template <typename TaskT> struct TaskAwaiter;

/**
 * The kernel's most frequent event: resume a suspended coroutine.
 * Every timed wakeup (Delay) and synchronization wakeup (Channel,
 * Gate) schedules one of these; at 8 bytes it is guaranteed to use
 * the event queue's inline capture storage, so a task switch never
 * allocates.
 */
struct Resume {
    std::coroutine_handle<> handle;
    void operator()() const { handle.resume(); }
};

/** State and await_transforms shared by all task promises. */
struct PromiseBase {
    /** Simulation this task runs on; set at spawn/await time. */
    Simulation *sim = nullptr;
    /** Coroutine to resume when this task completes. */
    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
        bool await_ready() noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            auto &p = h.promise();
            return p.continuation
                       ? p.continuation
                       : std::coroutine_handle<>(std::noop_coroutine());
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { error = std::current_exception(); }

    /** co_await Delay{t}: resume via the event queue. */
    DelayAwaiter await_transform(Delay d) noexcept;

    /** co_await childTask: run child to completion, then resume. */
    TaskAwaiter<Task> await_transform(Task &&child) noexcept;
    template <typename T>
    TaskAwaiter<ValueTask<T>>
    await_transform(ValueTask<T> &&child) noexcept;

    /** Everything else (channels, gates...) passes through. */
    template <typename A>
    decltype(auto)
    await_transform(A &&awaitable) noexcept
    {
        return std::forward<A>(awaitable);
    }
};

/** Promise of a void Task. */
struct TaskPromise : PromiseBase {
    Task get_return_object();
    void return_void() {}
};

/** Promise of a ValueTask<T>. */
template <typename T>
struct ValuePromise : PromiseBase {
    std::optional<T> value;

    ValueTask<T> get_return_object();
    void return_value(T v) { value = std::move(v); }
};

/** Move-only RAII owner of a coroutine frame. */
template <typename Promise>
class TaskBase
{
  public:
    using promise_type = Promise;
    using Handle = std::coroutine_handle<Promise>;

    TaskBase() = default;
    explicit TaskBase(Handle h) : handle_(h) {}

    TaskBase(TaskBase &&o) noexcept
        : handle_(std::exchange(o.handle_, {}))
    {}

    TaskBase &
    operator=(TaskBase &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, {});
        }
        return *this;
    }

    TaskBase(const TaskBase &) = delete;
    TaskBase &operator=(const TaskBase &) = delete;

    ~TaskBase() { destroy(); }

    bool valid() const { return static_cast<bool>(handle_); }
    bool done() const { return !handle_ || handle_.done(); }
    Handle handle() const { return handle_; }

    /** Release ownership of the coroutine frame to the caller. */
    Handle release() { return std::exchange(handle_, {}); }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

} // namespace detail

/** A simulation coroutine with no result value. */
class [[nodiscard]] Task : public detail::TaskBase<detail::TaskPromise>
{
  public:
    using detail::TaskBase<detail::TaskPromise>::TaskBase;
};

/** A simulation coroutine producing a T for its awaiter. */
template <typename T>
class [[nodiscard]] ValueTask
    : public detail::TaskBase<detail::ValuePromise<T>>
{
  public:
    using detail::TaskBase<detail::ValuePromise<T>>::TaskBase;
};

namespace detail {

inline Task
TaskPromise::get_return_object()
{
    return Task(std::coroutine_handle<TaskPromise>::from_promise(*this));
}

template <typename T>
ValueTask<T>
ValuePromise<T>::get_return_object()
{
    return ValueTask<T>(
        std::coroutine_handle<ValuePromise<T>>::from_promise(*this));
}

} // namespace detail

} // namespace san::sim

#endif // SAN_SIM_TASK_HH
