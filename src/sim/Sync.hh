/**
 * @file
 * Inter-task synchronization: channels and gates.
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

#include "sim/RingQueue.hh"
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
        items_.push(std::move(value));
        wakeOne();
    }

    /** Number of values currently queued. */
    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

    struct PopAwaiter {
        Channel &ch;
        std::optional<T> value;

        bool
        await_ready()
        {
            // Only claim a value directly if no earlier popper is
            // queued, preserving FIFO service.
            if (ch.waiters_.empty() && !ch.items_.empty()) {
                value = ch.items_.pop();
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ch.waiters_.push(Waiter{h, this});
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
        const Waiter w = waiters_.pop();
        w.awaiter->value = items_.pop();
        sim_.events().postNow(detail::Resume{w.handle});
    }

    Simulation &sim_;
    // No storage until the first value or popper has to wait.
    RingQueue<T> items_;
    RingQueue<Waiter> waiters_;
};

/**
 * A one-shot broadcast event. Awaiting an open gate proceeds
 * immediately; open() releases every waiter.
 */
class Gate
{
  public:
    explicit Gate(Simulation &sim) : sim_(sim) {}

    Gate(const Gate &) = delete;
    Gate &operator=(const Gate &) = delete;

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

} // namespace san::sim

#endif // SAN_SIM_SYNC_HH
