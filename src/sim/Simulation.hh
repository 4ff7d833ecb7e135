/**
 * @file
 * The Simulation: the event kernel. It keeps one record per
 * logical-process shard (event queue, cross-shard mail, spawned
 * tasks, buffered trace and warnings) and runs the shards under a
 * conservative barrier-window protocol derived from link latency.
 *
 * Model
 * -----
 * The component graph is partitioned into S logical-process *shards*
 * (net::ShardPlan decides the cut; switches and adapters are the
 * units). Every simulation runs here: an unpartitioned one is the
 * S = 1 case, one shard with an unbounded window, so its run is a
 * single round that drains the one queue in (tick, seq) order.
 * Each shard owns a full ladder EventQueue and executes its
 * events on exactly one worker thread (shard s runs on worker
 * s % W, so a shard never migrates between threads). Cross-shard
 * interactions — packet arrivals and credit returns on boundary
 * links — become timestamped messages posted to the destination
 * shard and delivered at the next synchronization point.
 *
 * Synchronization is a barrier window (bounded-lag / YAWNS style):
 *
 *   round k:  floor_k   = min over shards of next-event tick,
 *                         and over all undelivered message stamps
 *             horizon_k = floor_k + L   (saturating)
 *             every shard executes events with tick < horizon_k
 *
 * where L, the *lookahead*, is the minimum propagation latency over
 * all boundary links. Safety: any event executed in round k has
 * tick >= floor_k, so a cross-shard message it emits is stamped at
 * least floor_k + L = horizon_k and cannot affect this round —
 * delivering it at the round k+1 barrier never violates executed
 * history. horizon_k > floor_k guarantees at least one event runs
 * per round, so the loop always terminates.
 *
 * Determinism
 * -----------
 * S and the partition depend only on the topology — never on the
 * thread count W. The round sequence (floor_0, floor_1, ...) is a
 * pure function of simulation state, and within a round each shard
 * executes its own queue in the usual (tick, seq) order with
 * messages delivered in (src shard, post order) order. Worker
 * threads therefore only decide *which OS thread* runs a shard, not
 * *what* it computes: per-shard event streams — and everything
 * folded from them — are bit-identical across W and across repeat
 * runs. What a multi-shard run reports while it runs (trace events,
 * warnings) is held per shard and written out in shard order when
 * the run ends, so it is the same at every W. See DESIGN.md §14.
 *
 * A round costs O((shards run + messages) · log S); only a run's
 * first and last boundaries visit every shard. During the execute
 * phase each shard appends the messages it posts to its own outbox.
 * The barrier's completion step — which runs exactly once, on one
 * thread, with every worker parked — touches only the shards that
 * ran: it refreshes their leaves in a min-tree over the shards'
 * next-event ticks and moves their outboxes into per-destination
 * inboxes in (source shard, post order) order. The floor is the
 * tree's root or an earlier message stamp. The shards with work in
 * the new window — mail, or an event below the horizon — come from
 * the mail destinations and a walk down the tree. Workers run only
 * those shards. The barrier provides all happens-before edges, so
 * the hot path takes no locks.
 */

#ifndef SAN_SIM_SIMULATION_HH
#define SAN_SIM_SIMULATION_HH

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/RunContext.hh"
#include "sim/Task.hh"
#include "sim/Tracer.hh"
#include "sim/Types.hh"

namespace san::sim {

/**
 * A single simulation run: its shards and the run loop that drives
 * them. Spawned tasks are owned by the simulation and reaped once
 * complete.
 *
 * A fresh simulation is one shard with an unbounded window, which
 * net::Fabric::applyShardPlan may re-partition into S shards driven
 * by worker threads. Component code stays oblivious — events()/now()/
 * tracer()/warn() resolve through the worker's thread-local shard
 * context.
 *
 * The RunContext given at construction names the run's instruments
 * (see sim/RunContext.hh); it never changes while the run exists.
 */
class Simulation
{
  public:
    explicit Simulation(const RunContext &context = {})
        : context_(context), next_(2, maxTick)
    {
        shards_.push_back(std::make_unique<Shard>(0));
    }
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** The instruments this run reports to. */
    const RunContext &context() const { return context_; }

    /** The calling context's event queue: the shard queue inside a
     *  run or ShardGuard, else shard 0 (see here()). */
    EventQueue &events() { return here().queue; }

    /** The calling shard's clock; outside a shard context, the
     *  simulation clock (the latest shard clock). */
    Tick
    now() const
    {
        const Context &t = tls();
        if (t.sim == this)
            return t.shard->queue.now();
        Tick latest = 0;
        for (const auto &s : shards_)
            latest = std::max(latest, s->queue.now());
        return latest;
    }

    /**
     * The calling shard's trace sink, or null when the run is not
     * traced. Hardware models consult it before emitting spans, so
     * an untraced run pays one branch. One shard writes straight to
     * context().tracer: a single thread runs it, and its events
     * already come in execution order. Inside a multi-shard run or
     * ShardGuard, each shard writes to its own buffer, replayed in
     * shard order after the run, so a non thread-safe exporter
     * never sees two shards at once and the output does not depend
     * on the worker count.
     */
    Tracer *
    tracer() const
    {
        if (context_.tracer == nullptr || shards_.size() == 1)
            return context_.tracer;
        const Context &t = tls();
        if (t.sim == this)
            return &t.shard->trace;
        return context_.tracer;
    }

    /**
     * Report an event a run's reader should see (a dropped packet, a
     * crashed handler, an aborted flow) as one stderr line,
     * "[warn] t=<now()>ps <component>: <parts...>". There is no log
     * level to set. A one-shard run, and any call outside a run,
     * prints the line at once. Inside a multi-shard run the line
     * waits in the calling shard's record until the run ends, then
     * runSharded prints every shard's lines in shard order, so
     * stderr is the same at every worker count.
     */
    template <typename... Parts>
    void
    warn(const std::string &component, const Parts &...parts)
    {
        std::ostringstream line;
        line << "[warn] t=" << now() << "ps " << component << ": ";
        (line << ... << parts) << '\n';
        const Context &t = tls();
        if (running_ && sharded() && t.sim == this)
            t.shard->warnings += line.str();
        else
            std::cerr << line.str();
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
        Shard &shard = here();
        reap(shard);
        task.handle().promise().sim = this;
        auto &slot = shard.tasks.emplace_back(std::move(task));
        slot.handle().resume();
        if (slot.handle().promise().error)
            std::rethrow_exception(slot.handle().promise().error);
    }

    /** Run until no events remain. @return final simulated time. */
    Tick run() { return runSharded(1); }

    /**
     * Run every shard to completion on @p threads workers (clamped
     * to S). @return final simulated time: the maximum over the
     * shard clocks. Prints the warnings the shards held, in shard
     * order, then rethrows the first worker exception, if any, on
     * the calling thread after all workers have joined; otherwise
     * reaps every shard's tasks and replays buffered traces into the
     * tracer before returning.
     */
    Tick
    runSharded(std::size_t threads)
    {
        const std::size_t S = shards_.size();
        const std::size_t W =
            std::max<std::size_t>(1, std::min(threads, S));
        done_ = false;
        failed_.store(false, std::memory_order_relaxed);

        // Work may have been scheduled, and mail posted, under a
        // ShardGuard since the last run, so the first boundary treats
        // every shard as having just run. A run cut short by an error
        // can leave mail undelivered; it is listed up front. Both
        // shard lists are sized once, so the completion step never
        // reallocates them.
        runnable_.resize(S);
        mailed_.clear();
        mailed_.reserve(S);
        for (std::size_t s = 0; s < S; ++s) {
            runnable_[s] = s;
            if (!shards_[s]->inbox.empty())
                mailed_.push_back(s);
        }

        std::barrier bar(static_cast<std::ptrdiff_t>(W),
                         [this]() noexcept { roundBoundary(); });

        running_ = true;
        std::vector<std::thread> extra;
        extra.reserve(W - 1);
        for (std::size_t w = 1; w < W; ++w)
            extra.emplace_back([this, w, W, &bar] {
                workerLoop(w, W, bar);
            });
        workerLoop(0, W, bar);
        for (auto &th : extra)
            th.join();
        running_ = false;
        for (auto &s : shards_) {
            if (!s->warnings.empty())
                std::cerr << s->warnings;
            s->warnings.clear();
        }

        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
        const Tick end = now();
        for (auto &s : shards_)
            reap(*s);
        if (context_.tracer != nullptr) {
            for (auto &s : shards_) {
                for (const auto &[track, event] : s->trace.events)
                    context_.tracer->emit(track, event);
                s->trace.events = {};
            }
        }
        return end;
    }

    /** Number of live (not yet finished) tasks. */
    std::size_t
    liveTasks() const
    {
        std::size_t n = 0;
        for (const auto &s : shards_)
            for (const auto &t : s->tasks)
                if (!t.done())
                    ++n;
        return n;
    }

    /** Events executed across every shard. */
    std::uint64_t
    executedEvents() const
    {
        std::uint64_t n = 0;
        for (const auto &s : shards_)
            n += s->queue.executedEvents();
        return n;
    }

    /**
     * The shard index the calling thread is executing, or SIZE_MAX
     * outside any shard context. Shard-safe instruments
     * (obs::Telemetry's per-shard slices) key their state on this.
     */
    static std::size_t
    currentShard()
    {
        const Context &t = tls();
        return t.sim != nullptr ? t.shard->index : SIZE_MAX;
    }

    /** @{ ------------------------- Sharding ----------------------- */

    /**
     * Partition this simulation into @p shards logical processes
     * with conservative lookahead @p lookahead (the minimum boundary
     * link propagation; net::Fabric::applyShardPlan computes both).
     * Must be called after components are built but before any event
     * has been scheduled; thereafter every spawn must name a shard
     * (ShardGuard). Shard 0 keeps its queue and task list, so tasks
     * spawned before the plan (server loops parked on their receive
     * channels) stay alive where they are.
     */
    void
    enableSharding(std::size_t shards, Tick lookahead)
    {
        assert(shards_.size() == 1 && "already partitioned");
        assert(shards >= 1);
        assert(lookahead >= 1 && "zero lookahead would livelock");
        assert(shards_[0]->queue.empty() && shards_[0]->queue.now() == 0 &&
               "enable sharding before scheduling events");
        lookahead_ = lookahead;
        while (shards_.size() < shards)
            shards_.push_back(std::make_unique<Shard>(shards_.size()));
        next_.assign(2 * shards, maxTick);
    }

    /** More than one shard. */
    bool sharded() const { return shards_.size() > 1; }

    std::size_t shardCount() const { return shards_.size(); }

    /** The conservative window width (maxTick with one shard). */
    Tick lookahead() const { return lookahead_; }

    /** Shard @p s's event queue (observers, tests). */
    EventQueue &shardQueue(std::size_t s) { return shards_.at(s)->queue; }

    /**
     * Post @p fn to run at @p when on shard @p dst. Must be called
     * from shard context (worker thread or ShardGuard); the source
     * shard is implicit. The boundary-link machinery (net::Link in
     * cross-shard mode) is the only expected caller; the stamp must
     * honor the lookahead contract: when >= caller now + L for true
     * cross-shard traffic.
     */
    template <typename Fn>
    void
    crossSchedule(std::size_t dst, Tick when, Fn &&fn)
    {
        const Context &t = tls();
        assert(t.sim == this && "cross-shard post outside shard context");
        assert(dst < shards_.size());
        t.shard->outbox.push_back(
            {dst, when, std::function<void()>(std::forward<Fn>(fn))});
    }

    /** @} */

  private:
    friend class ShardGuard;

    /** A timestamped cross-shard message (cold path: one per
     *  boundary-link flit, not per event). */
    struct CrossMsg {
        std::size_t dst; //!< destination shard
        Tick when;
        std::function<void()> fn;
    };

    /** A shard's trace sink in a multi-shard run: keeps every event
     *  until the run ends. */
    struct TraceBuffer final : Tracer {
        void
        emit(const std::string &track, const TraceEvent &event) override
        {
            events.emplace_back(track, event);
        }

        std::vector<std::pair<std::string, TraceEvent>> events;
    };

    /**
     * One logical process. During a round's execute phase only the
     * worker running the shard touches its record; outbox is then
     * appended to only by this shard, and the completion step empties
     * it into the destinations' inboxes. Heap-allocated, so the
     * thread-local context may point at it across a repartition.
     */
    struct Shard {
        explicit Shard(std::size_t i) : index(i) {}

        EventQueue queue;
        std::vector<CrossMsg> outbox;
        std::vector<CrossMsg> inbox;
        std::list<Task> tasks;
        TraceBuffer trace;
        std::string warnings; //!< held until the run ends
        std::size_t index;
    };

    /**
     * Thread-local shard context. While a worker executes a shard of
     * a simulation (or build code runs under a ShardGuard), this
     * names the simulation and the shard's record; events()/now()/
     * tracer()/warn() consult it so component code is
     * shard-oblivious.
     */
    struct Context {
        const Simulation *sim = nullptr;
        Shard *shard = nullptr;
    };

    static Context &
    tls()
    {
        thread_local Context t;
        return t;
    }

    /**
     * The calling context's shard: the one a worker runs or a
     * ShardGuard names, else shard 0 of a one-shard simulation. A
     * multi-shard simulation has no default — an event or task must
     * name its shard (ShardGuard), or it would land on a queue no
     * component of it lives on — so asking is an error.
     */
    Shard &
    here()
    {
        const Context &t = tls();
        if (t.sim == this)
            return *t.shard;
        if (shards_.size() != 1)
            throw std::logic_error(
                "sharded simulation: schedule and spawn under a "
                "ShardGuard");
        return *shards_[0];
    }

    /** Reap @p shard's finished tasks, rethrowing the first task
     *  error. */
    static void
    reap(Shard &shard)
    {
        auto &list = shard.tasks;
        for (auto it = list.begin(); it != list.end();) {
            if (it->done()) {
                if (it->handle().promise().error)
                    std::rethrow_exception(it->handle().promise().error);
                it = list.erase(it);
            } else {
                ++it;
            }
        }
    }

    /**
     * The barrier completion step: runs exactly once per round, on
     * exactly one thread, while every worker is parked at the
     * barrier — the quiescent point where cross-shard state may be
     * touched without locks.
     */
    void
    roundBoundary() noexcept
    {
        // Only the shards that just ran can have changed queues.
        for (const std::size_t s : runnable_)
            setNext(s, shards_[s]->queue.nextEventTick());
        if (failed_.load(std::memory_order_relaxed)) {
            runnable_.clear();
            done_ = true;
            return;
        }

        // Publish posted messages: source shard ascending, post order
        // within a source. Only the shards that ran posted any. Every
        // inbox was drained by the previous execute phase, since a
        // shard with mail always runs, so a destination's first
        // message lists it.
        Tick floor = next_[1];
        for (const std::size_t s : runnable_) {
            auto &outbox = shards_[s]->outbox;
            for (auto &m : outbox) {
                floor = std::min(floor, m.when);
                auto &inbox = shards_[m.dst]->inbox;
                if (inbox.empty())
                    mailed_.push_back(m.dst);
                inbox.push_back(std::move(m));
            }
            outbox.clear();
        }
        horizon_ = saturatingAdd(floor, lookahead_);

        // A shard runs if it has mail or an event below the horizon.
        // A window capped at maxTick also runs the events at maxTick,
        // which the tree cannot tell from an empty queue, so that
        // window (the run's last) scans every shard. No shard to run
        // means every queue and inbox is empty.
        runnable_.clear();
        if (horizon_ == maxTick) {
            mailed_.clear();
            for (std::size_t s = 0; s < shards_.size(); ++s)
                if (!shards_[s]->inbox.empty() || !shards_[s]->queue.empty())
                    runnable_.push_back(s);
        } else {
            // Mail and the tree walk list shards out of order.
            runnable_.swap(mailed_);
            collectBelow(1);
            std::sort(runnable_.begin(), runnable_.end());
        }
        done_ = runnable_.empty();
    }

    /** Set shard @p s's next-event tick and the minima above it. */
    void
    setNext(std::size_t s, Tick t)
    {
        std::size_t i = shards_.size() + s;
        next_[i] = t;
        for (i /= 2; i >= 1; i /= 2) {
            const Tick m = std::min(next_[2 * i], next_[2 * i + 1]);
            if (next_[i] == m)
                break; // every node above already holds its minimum
            next_[i] = m;
        }
    }

    /** List the shards under tree @p node with an event below the
     *  horizon and no mail (a shard with mail is listed already). */
    void
    collectBelow(std::size_t node)
    {
        if (next_[node] >= horizon_)
            return;
        const std::size_t S = shards_.size();
        if (node >= S) {
            if (shards_[node - S]->inbox.empty())
                runnable_.push_back(node - S);
            return;
        }
        collectBelow(2 * node);
        collectBelow(2 * node + 1);
    }

    template <typename Barrier>
    void
    workerLoop(std::size_t w, std::size_t W, Barrier &bar)
    {
        for (;;) {
            bar.arrive_and_wait();
            if (done_)
                return;
            try {
                for (const std::size_t s : runnable_)
                    if (s % W == w)
                        executeShard(*shards_[s]);
            } catch (...) {
                std::lock_guard lock(errorMu_);
                if (!error_)
                    error_ = std::current_exception();
                failed_.store(true, std::memory_order_relaxed);
            }
            tls() = Context{};
        }
    }

    // Kept out of workerLoop: a build where GCC 12 inlined it there ran
    // the 80-shard, one-worker half of fattree_hub_pdes about 35 %
    // slower.
    [[gnu::noinline]] void
    executeShard(Shard &shard)
    {
        tls() = Context{this, &shard};

        // Deliver this round's messages, already in (source shard,
        // post order) order. The queue's own seq numbering then fixes
        // execution order.
        for (auto &m : shard.inbox)
            shard.queue.schedule(m.when, std::move(m.fn));
        shard.inbox.clear();
        // A window capped at maxTick leaves no later tick for a message
        // to land on, so it also covers the events at maxTick itself
        // (with one shard: the whole queue).
        if (horizon_ == maxTick)
            shard.queue.run();
        else
            shard.queue.runUntilBefore(horizon_);
    }

    const RunContext context_;
    std::vector<std::unique_ptr<Shard>> shards_;
    Tick lookahead_ = maxTick;
    bool running_ = false; //!< inside runSharded's worker loop

    // Round state: written in the completion step / under errorMu_,
    // read by workers after the barrier (which supplies the
    // happens-before edges). next_ is a min-tree over the shards'
    // next-event ticks as of their last run: shard s is leaf
    // next_[S + s] and node i < S holds the minimum of nodes 2i and
    // 2i + 1, so next_[1] is the earliest of all (with one shard, it
    // is that shard's leaf). runnable_ lists, ascending,
    // the shards that run this round (shard s on worker s % W);
    // mailed_ gathers the shards with mail while the completion step
    // builds the next runnable_.
    std::vector<Tick> next_;
    std::vector<std::size_t> runnable_;
    std::vector<std::size_t> mailed_;
    Tick horizon_ = 0;
    bool done_ = false;
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;
    std::mutex errorMu_;
};

/**
 * RAII shard context for build/spawn code on the main thread: while
 * alive, everything spawned or scheduled on @p sim — and every
 * cross-shard message posted — is pinned to @p shard. On a one-shard
 * simulation every guard names shard 0, which is where unguarded
 * calls land anyway.
 */
class ShardGuard
{
  public:
    ShardGuard(Simulation &sim, std::size_t shard)
        : saved_(Simulation::tls())
    {
        Simulation::tls() = {&sim, sim.shards_.at(shard).get()};
    }

    ShardGuard(const ShardGuard &) = delete;
    ShardGuard &operator=(const ShardGuard &) = delete;

    ~ShardGuard() { Simulation::tls() = saved_; }

  private:
    Simulation::Context saved_;
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
