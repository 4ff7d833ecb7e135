/**
 * @file
 * The Simulation: owns the event queues and every spawned task.
 */

#ifndef SAN_SIM_SIMULATION_HH
#define SAN_SIM_SIMULATION_HH

#include <cassert>
#include <cstddef>
#include <string>
#include <utility>

#include "sim/EventQueue.hh"
#include "sim/Pdes.hh"
#include "sim/Task.hh"
#include "sim/Tracer.hh"
#include "sim/Types.hh"

namespace san::sim {

/**
 * A single simulation run: a pdes::ShardSet of event queues plus a
 * registry of detached tasks per shard. Spawned tasks are owned by
 * the simulation and reaped once complete.
 *
 * A fresh simulation is one shard with an unbounded window, which
 * net::Fabric::applyShardPlan may re-partition into S shards driven
 * by worker threads under the conservative barrier-window protocol
 * of sim/Pdes.hh. Component code stays oblivious — events()/now()/
 * tracer() resolve through the worker's thread-local shard context.
 */
class Simulation
{
  public:
    Simulation() = default;
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** The calling context's event queue: the shard queue inside a
     *  run or ShardGuard, else shard 0 (see ShardSet::defaultShard). */
    EventQueue &
    events()
    {
        const auto &t = pdes::detail::tls();
        if (t.owner == &shards_)
            return *t.queue;
        return shards_.queue(shards_.defaultShard());
    }

    /** The calling shard's clock; outside a shard context, the
     *  simulation clock (the latest shard clock). */
    Tick
    now() const
    {
        const auto &t = pdes::detail::tls();
        if (t.owner == &shards_)
            return t.queue->now();
        return shards_.now();
    }

    /**
     * Attach (or clear) a tracer. Hardware models consult tracer()
     * before emitting spans, so a null tracer costs one branch.
     * Multi-shard runs interpose a per-shard pdes::BufferingTracer so
     * a single-threaded exporter never sees two shards at once.
     */
    void setTracer(Tracer *tracer) { shards_.setTracer(tracer); }

    Tracer *
    tracer() const
    {
        const auto &t = pdes::detail::tls();
        if (t.owner == &shards_)
            return t.tracer;
        return shards_.tracer();
    }

    /**
     * Start a detached task. The simulation owns the coroutine frame
     * until it finishes. Tasks begin executing immediately (at the
     * current simulated time), pinned to the calling context's shard
     * (see events()): the frame joins that shard's registry and its
     * first events land on that shard's queue.
     */
    void
    spawn(Task task)
    {
        assert(task.valid());
        const auto &t = pdes::detail::tls();
        const std::size_t s =
            t.owner == &shards_ ? t.shard : shards_.defaultShard();
        shards_.reap(s);
        task.handle().promise().sim = this;
        auto &slot = shards_.taskList(s).emplace_back(std::move(task));
        slot.handle().resume();
        if (slot.handle().promise().error)
            std::rethrow_exception(slot.handle().promise().error);
    }

    /** Run until no events remain. @return final simulated time. */
    Tick run() { return runSharded(1); }

    /**
     * Run to completion on @p threads workers. @return final
     * simulated time (max over shard clocks). Replays buffered traces
     * into the tracer and reaps every shard's tasks before returning.
     */
    Tick
    runSharded(std::size_t threads)
    {
        const Tick t = shards_.run(threads);
        shards_.reapAll();
        shards_.replayTraces();
        return t;
    }

    /** Number of live (not yet finished) tasks. */
    std::size_t liveTasks() const { return shards_.liveTasks(); }

    /** Events executed across every shard. */
    std::uint64_t
    executedEvents() const
    {
        return shards_.executedEvents();
    }

    /** @{ ------------------------- Sharding ----------------------- */

    /**
     * Partition this simulation into @p shards logical processes
     * with conservative lookahead @p lookahead (the minimum boundary
     * link propagation; net::Fabric::applyShardPlan computes both).
     * Must be called after components are built but before any event
     * has been scheduled; thereafter every spawn must name a shard
     * (ShardGuard). Tasks spawned before stay on shard 0.
     */
    void
    enableSharding(std::size_t shards, Tick lookahead)
    {
        assert(shards_.queue(0).empty() && shards_.queue(0).now() == 0 &&
               "enable sharding before scheduling events");
        shards_.partition(shards, lookahead);
    }

    /** More than one shard. */
    bool sharded() const { return shards_.shards() > 1; }

    std::size_t shardCount() const { return shards_.shards(); }

    /** The conservative window width (maxTick with one shard). */
    Tick lookahead() const { return shards_.lookahead(); }

    /** Shard @p s's event queue (observers, tests). */
    EventQueue &shardQueue(std::size_t s) { return shards_.queue(s); }

    /**
     * Post @p fn to run at @p when on shard @p dst. The boundary-link
     * machinery (net::Link in cross-shard mode) is the only expected
     * caller; the timestamp must honor the lookahead contract.
     */
    template <typename Fn>
    void
    crossSchedule(std::size_t dst, Tick when, Fn &&fn)
    {
        shards_.post(dst, when, std::function<void()>(std::forward<Fn>(fn)));
    }

    /** @} */

  private:
    friend class ShardGuard;

    pdes::ShardSet shards_;
};

/**
 * Scoped shard context for build-time spawns: everything spawned or
 * scheduled on @p sim while the guard is alive is pinned to
 * @p shard.
 */
class ShardGuard : public pdes::ShardGuard
{
  public:
    ShardGuard(Simulation &sim, std::size_t shard)
        : pdes::ShardGuard(sim.shards_, shard)
    {
    }
};

namespace detail {

/** Awaiter scheduling resumption after a fixed delay. */
struct DelayAwaiter {
    Simulation *sim;
    Tick ticks;

    // Even zero-tick delays go through the event queue so that
    // resumption order is deterministic and stacks stay shallow —
    // but via postNow, so they stay out of the ladder scheduler's
    // bucket-width tuning statistics (a zero horizon says nothing
    // about where timed events land).
    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        static_assert(sizeof(Resume) <= EventQueue::inlineCaptureBytes,
                      "coroutine resumption must stay allocation-free");
        if (ticks == 0)
            sim->events().postNow(Resume{h});
        else
            sim->events().after(ticks, Resume{h});
    }

    void await_resume() const noexcept {}
};

/** Awaiter running a child task to completion. */
template <typename TaskT>
struct TaskAwaiter {
    TaskT child; // keeps the child frame alive across the await
    Simulation *sim;

    bool await_ready() const noexcept { return !child.valid(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> parent) noexcept
    {
        auto &cp = child.handle().promise();
        cp.sim = sim;
        cp.continuation = parent;
        return child.handle(); // symmetric transfer: start the child
    }

    decltype(auto)
    await_resume()
    {
        auto &cp = child.handle().promise();
        if (cp.error)
            std::rethrow_exception(cp.error);
        if constexpr (requires { cp.value; }) {
            assert(cp.value.has_value());
            return std::move(*cp.value);
        }
    }
};

inline DelayAwaiter
PromiseBase::await_transform(Delay d) noexcept
{
    assert(sim && "task must be spawned on a Simulation");
    return DelayAwaiter{sim, d.ticks};
}

inline TaskAwaiter<Task>
PromiseBase::await_transform(Task &&child) noexcept
{
    return TaskAwaiter<Task>{std::move(child), sim};
}

template <typename T>
TaskAwaiter<ValueTask<T>>
PromiseBase::await_transform(ValueTask<T> &&child) noexcept
{
    return TaskAwaiter<ValueTask<T>>{std::move(child), sim};
}

} // namespace detail

} // namespace san::sim

#endif // SAN_SIM_SIMULATION_HH
