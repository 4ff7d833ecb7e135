/**
 * @file
 * Inter-task synchronization: channels, gates and semaphores.
 *
 * All wakeups are funnelled through the event queue (at the current
 * tick, via EventQueue::postNow) rather than resuming inline, which
 * keeps resumption order deterministic and call stacks shallow.
 * postNow also keeps these zero-delay wakeups out of the ladder
 * scheduler's bucket-width tuning statistics, which only timed
 * events should feed.
 */

#ifndef SAN_SIM_SYNC_HH
#define SAN_SIM_SYNC_HH

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/Simulation.hh"

namespace san::sim {

/**
 * An unbounded FIFO channel of values of type T.
 *
 * push() never blocks; pop() is an awaitable that suspends the caller
 * until a value is available. Multiple poppers are served FIFO.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(Simulation &sim) : sim_(sim) {}

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Deposit a value, waking the longest-waiting popper if any. */
    void
    push(T value)
    {
        items_.push_back(std::move(value));
        wakeOne();
    }

    /** Number of values currently queued. */
    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

    /** Non-blocking pop. */
    std::optional<T>
    tryPop()
    {
        if (items_.empty())
            return std::nullopt;
        T v = std::move(items_.front());
        items_.pop_front();
        return v;
    }

    struct PopAwaiter {
        Channel &ch;
        std::optional<T> value;

        bool
        await_ready()
        {
            // Only claim a value directly if no earlier popper is
            // queued, preserving FIFO service.
            if (ch.waiters_.empty() && !ch.items_.empty()) {
                value = std::move(ch.items_.front());
                ch.items_.pop_front();
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ch.waiters_.push_back(Waiter{h, this});
        }

        T
        await_resume()
        {
            assert(value.has_value());
            return std::move(*value);
        }
    };

    /** Awaitable: suspend until a value can be taken. */
    PopAwaiter pop() { return PopAwaiter{*this, std::nullopt}; }

  private:
    struct Waiter {
        std::coroutine_handle<> handle;
        PopAwaiter *awaiter;
    };

    void
    wakeOne()
    {
        if (waiters_.empty() || items_.empty())
            return;
        Waiter w = waiters_.front();
        waiters_.pop_front();
        w.awaiter->value = std::move(items_.front());
        items_.pop_front();
        sim_.events().postNow(detail::Resume{w.handle});
    }

    Simulation &sim_;
    std::deque<T> items_;
    std::deque<Waiter> waiters_;
};

/**
 * A one-shot (but resettable) broadcast event. Awaiting an open gate
 * proceeds immediately; open() releases every waiter.
 */
class Gate
{
  public:
    explicit Gate(Simulation &sim) : sim_(sim) {}

    Gate(const Gate &) = delete;
    Gate &operator=(const Gate &) = delete;

    bool isOpen() const { return open_; }

    void
    open()
    {
        if (open_)
            return;
        open_ = true;
        for (auto h : waiters_)
            sim_.events().postNow(detail::Resume{h});
        waiters_.clear();
    }

    /** Close the gate again (subsequent awaits block). */
    void reset() { open_ = false; }

    struct Awaiter {
        Gate &gate;
        bool await_ready() const { return gate.open_; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            gate.waiters_.push_back(h);
        }

        void await_resume() const {}
    };

    Awaiter wait() { return Awaiter{*this}; }

  private:
    Simulation &sim_;
    bool open_ = false;
    std::deque<std::coroutine_handle<>> waiters_;
};

/** Counting semaphore with FIFO acquire order. */
class Semaphore
{
  public:
    Semaphore(Simulation &sim, std::size_t initial)
        : sim_(sim), count_(initial)
    {}

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    std::size_t available() const { return count_; }

    void
    release(std::size_t n = 1)
    {
        count_ += n;
        while (count_ > 0 && !waiters_.empty()) {
            --count_;
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.events().postNow(detail::Resume{h});
        }
    }

    struct Awaiter {
        Semaphore &sem;

        bool
        await_ready()
        {
            if (sem.waiters_.empty() && sem.count_ > 0) {
                --sem.count_;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sem.waiters_.push_back(h);
        }

        void await_resume() const {}
    };

    Awaiter acquire() { return Awaiter{*this}; }

  private:
    Simulation &sim_;
    std::size_t count_;
    std::deque<std::coroutine_handle<>> waiters_;
};

} // namespace san::sim

#endif // SAN_SIM_SYNC_HH
