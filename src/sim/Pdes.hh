/**
 * @file
 * Conservative parallel-DES (PDES) runtime: shard-local event queues
 * synchronized by a barrier window derived from link latency.
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
 * runs. See DESIGN.md §14.
 *
 * A round costs O(S + messages), never O(S²). During the execute
 * phase each shard appends the messages it posts to its own outbox.
 * The barrier's completion step — which runs exactly once, on one
 * thread, with every worker parked — moves them into per-destination
 * inboxes in (source shard, post order) order, takes the floor from
 * their stamps and a per-shard next-event cache (refreshed only for
 * the shards that ran), and lists the shards with work in the new
 * window: mail, or an event below the horizon. Workers run only
 * those shards. The barrier provides all happens-before edges, so
 * the hot path takes no locks.
 */

#ifndef SAN_SIM_PDES_HH
#define SAN_SIM_PDES_HH

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Task.hh"
#include "sim/Tracer.hh"
#include "sim/Types.hh"

namespace san::sim {

namespace pdes {

class ShardSet;

namespace detail {

/**
 * Thread-local shard context. While a worker executes shard s of a
 * simulation (or build code runs under a ShardGuard), this names the
 * simulation's shard set, the shard index, its queue, and its trace
 * sink; Simulation::events()/now()/tracer() consult it so component
 * code is shard-oblivious.
 */
struct ShardTls {
    const ShardSet *owner = nullptr;
    std::size_t shard = 0;
    EventQueue *queue = nullptr;
    Tracer *tracer = nullptr;
};

inline ShardTls &
tls()
{
    thread_local ShardTls t;
    return t;
}

} // namespace detail

/**
 * The shard index the calling thread is currently executing, or
 * SIZE_MAX when outside any shard context. Shard-safe singletons
 * (obs::Telemetry's per-shard slices) key their thread-local state
 * on this.
 */
inline std::size_t
currentShard()
{
    const auto &t = detail::tls();
    return t.owner != nullptr ? t.shard : SIZE_MAX;
}

/** floor + lookahead without wrapping past the end of time. */
inline Tick
saturatingAdd(Tick a, Tick b)
{
    return a > maxTick - b ? maxTick : a + b;
}

/**
 * Per-shard trace sink: records every call and replays it into the
 * real exporter after the run, one shard at a time, so a non
 * thread-safe tracer (obs::ChromeTracer writes a FILE*) never sees
 * two shards at once. Replay order is deterministic (shard id, then
 * emission order); the exporter sorts by timestamp anyway.
 */
class BufferingTracer : public Tracer
{
  public:
    void
    span(const std::string &track, const char *name, Tick start,
         Tick end) override
    {
        recs_.push_back({Kind::Span, track, name, start, end, 0, 0.0});
    }

    void
    instant(const std::string &track, const char *name, Tick at) override
    {
        recs_.push_back({Kind::Instant, track, name, at, 0, 0, 0.0});
    }

    void
    asyncBegin(const std::string &track, const char *name,
               std::uint64_t id, Tick at) override
    {
        recs_.push_back({Kind::AsyncBegin, track, name, at, 0, id, 0.0});
    }

    void
    asyncEnd(const std::string &track, const char *name,
             std::uint64_t id, Tick at) override
    {
        recs_.push_back({Kind::AsyncEnd, track, name, at, 0, id, 0.0});
    }

    void
    counter(const std::string &track, const char *name, Tick at,
            double value) override
    {
        recs_.push_back({Kind::Counter, track, name, at, 0, 0, value});
    }

    void
    flowBegin(const std::string &track, const char *name,
              std::uint64_t id, Tick at) override
    {
        recs_.push_back({Kind::FlowBegin, track, name, at, 0, id, 0.0});
    }

    void
    flowStep(const std::string &track, const char *name,
             std::uint64_t id, Tick at) override
    {
        recs_.push_back({Kind::FlowStep, track, name, at, 0, id, 0.0});
    }

    void
    flowEnd(const std::string &track, const char *name,
            std::uint64_t id, Tick at) override
    {
        recs_.push_back({Kind::FlowEnd, track, name, at, 0, id, 0.0});
    }

    void
    replayTo(Tracer &out) const
    {
        for (const auto &r : recs_) {
            switch (r.kind) {
              case Kind::Span:
                out.span(r.track, r.name, r.a, r.b);
                break;
              case Kind::Instant:
                out.instant(r.track, r.name, r.a);
                break;
              case Kind::AsyncBegin:
                out.asyncBegin(r.track, r.name, r.id, r.a);
                break;
              case Kind::AsyncEnd:
                out.asyncEnd(r.track, r.name, r.id, r.a);
                break;
              case Kind::Counter:
                out.counter(r.track, r.name, r.a, r.value);
                break;
              case Kind::FlowBegin:
                out.flowBegin(r.track, r.name, r.id, r.a);
                break;
              case Kind::FlowStep:
                out.flowStep(r.track, r.name, r.id, r.a);
                break;
              case Kind::FlowEnd:
                out.flowEnd(r.track, r.name, r.id, r.a);
                break;
            }
        }
    }

    std::size_t recorded() const { return recs_.size(); }

  private:
    enum class Kind : std::uint8_t {
        Span,
        Instant,
        AsyncBegin,
        AsyncEnd,
        Counter,
        FlowBegin,
        FlowStep,
        FlowEnd,
    };
    struct Rec {
        Kind kind;
        std::string track;
        const char *name; // trace names are string literals by contract
        Tick a;
        Tick b;
        std::uint64_t id;
        double value;
    };
    std::vector<Rec> recs_;
};

/**
 * The simulation kernel: S event queues, per-shard message outboxes
 * and inboxes, per-shard task registries and trace sinks, and the
 * barrier-window run loop. Every Simulation owns one, starting with
 * a single shard; Simulation remains the only public entry point.
 */
class ShardSet
{
  public:
    /** A timestamped cross-shard message (cold path: one per
     *  boundary-link flit, not per event). */
    struct CrossMsg {
        std::size_t dst; //!< destination shard
        Tick when;
        std::function<void()> fn;
    };

    /** One shard with an unbounded window, tracing to @p tracer
     *  (null: untraced). */
    explicit ShardSet(Tracer *tracer = nullptr)
        : outbox_(1), inbox_(1), tasks_(1), tracer_(tracer),
          sinks_(1, tracer)
    {
        queues_.push_back(std::make_unique<EventQueue>());
    }

    /**
     * Re-partition the single shard into @p shards with window width
     * @p lookahead. Shard 0 keeps its queue and task list, so tasks
     * spawned before the plan (server loops parked on their receive
     * channels) stay alive where they are.
     */
    void
    partition(std::size_t shards, Tick lookahead)
    {
        assert(shards_ == 1 && "already partitioned");
        assert(shards >= 1);
        assert(lookahead >= 1 && "zero lookahead would livelock");
        shards_ = shards;
        lookahead_ = lookahead;
        outbox_.assign(shards, {});
        inbox_.assign(shards, {});
        tasks_.resize(shards);
        while (queues_.size() < shards)
            queues_.push_back(std::make_unique<EventQueue>());
        routeTraces();
    }

    std::size_t shards() const { return shards_; }
    Tick lookahead() const { return lookahead_; }

    EventQueue &queue(std::size_t s) { return *queues_.at(s); }
    std::list<Task> &taskList(std::size_t s) { return tasks_.at(s); }

    /**
     * The shard of a caller outside any shard context: shard 0 of a
     * one-shard set. A multi-shard set has no default — an event or
     * task must name its shard (ShardGuard), or it would land on a
     * queue no component of it lives on — so asking is an error.
     */
    std::size_t
    defaultShard() const
    {
        if (shards_ != 1)
            throw std::logic_error(
                "sharded simulation: schedule and spawn under a "
                "ShardGuard");
        return 0;
    }

    /** The simulation clock: the latest shard clock. */
    Tick
    now() const
    {
        Tick t = 0;
        for (const auto &q : queues_)
            t = std::max(t, q->now());
        return t;
    }

    Tracer *tracer() const { return tracer_; }

    /** Shard @p s's trace sink (null when no tracer is attached). */
    Tracer *tracerFor(std::size_t s) const { return sinks_[s]; }

    /** Replay every shard's buffered trace into the tracer, in shard
     *  order (called once, after the run, single-threaded). */
    void
    replayTraces()
    {
        if (tracer_ == nullptr)
            return;
        for (auto &b : buffers_) {
            b->replayTo(*tracer_);
            *b = BufferingTracer();
        }
    }

    /**
     * Post a message to @p dst, executing @p fn at @p when on the
     * destination shard. Must be called from shard context (worker
     * thread or ShardGuard); the source shard is implicit. The stamp
     * must respect the lookahead contract: when >= caller now + L
     * for true cross-shard traffic.
     */
    void
    post(std::size_t dst, Tick when, std::function<void()> fn)
    {
        const auto &t = detail::tls();
        assert(t.owner == this &&
               "cross-shard post outside shard context");
        assert(dst < shards_);
        outbox_[t.shard].push_back({dst, when, std::move(fn)});
    }

    /** Total events executed across all shard queues. */
    std::uint64_t
    executedEvents() const
    {
        std::uint64_t n = 0;
        for (const auto &q : queues_)
            n += q->executedEvents();
        return n;
    }

    /**
     * Run every shard to completion on @p threads workers (clamped
     * to S). Returns the final simulated time: the maximum over the
     * shard clocks. Worker exceptions are rethrown on the calling
     * thread after all workers have joined.
     */
    Tick
    run(std::size_t threads)
    {
        const std::size_t W =
            std::max<std::size_t>(1, std::min(threads, shards_));
        done_ = false;
        failed_.store(false, std::memory_order_relaxed);

        // Work may have been scheduled between runs (under a
        // ShardGuard), so the next-event cache starts fresh. The
        // runnable list is sized once, so the completion step never
        // reallocates it.
        next_.resize(shards_);
        for (std::size_t s = 0; s < shards_; ++s)
            next_[s] = queues_[s]->nextEventTick();
        runnable_.clear();
        runnable_.reserve(shards_);

        std::barrier bar(static_cast<std::ptrdiff_t>(W),
                         [this]() noexcept { roundBoundary(); });

        std::vector<std::thread> extra;
        extra.reserve(W - 1);
        for (std::size_t w = 1; w < W; ++w)
            extra.emplace_back([this, w, W, &bar] {
                workerLoop(w, W, bar);
            });
        workerLoop(0, W, bar);
        for (auto &th : extra)
            th.join();

        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
        return now();
    }

    /** Reap shard @p s's finished tasks, rethrowing the first task
     *  error. */
    void
    reap(std::size_t s)
    {
        auto &list = tasks_.at(s);
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

    /** Reap every shard's finished tasks (quiescent, after run()). */
    void
    reapAll()
    {
        for (std::size_t s = 0; s < shards_; ++s)
            reap(s);
    }

    std::size_t
    liveTasks() const
    {
        std::size_t n = 0;
        for (const auto &list : tasks_)
            for (const auto &t : list)
                if (!t.done())
                    ++n;
        return n;
    }

  private:
    /**
     * Point each shard at its trace sink. One shard writes straight
     * to the tracer: a single thread runs it, and its events already
     * come in execution order. Several shards each get a private
     * buffer, replayed in shard order after the run, so a non
     * thread-safe exporter never sees two shards at once and the
     * output does not depend on the worker count.
     */
    void
    routeTraces()
    {
        sinks_.assign(shards_, tracer_);
        if (tracer_ == nullptr || shards_ == 1)
            return;
        while (buffers_.size() < shards_)
            buffers_.push_back(std::make_unique<BufferingTracer>());
        for (std::size_t s = 0; s < shards_; ++s)
            sinks_[s] = buffers_[s].get();
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
            next_[s] = queues_[s]->nextEventTick();
        runnable_.clear();
        if (failed_.load(std::memory_order_relaxed)) {
            done_ = true;
            return;
        }

        // Publish posted messages: source shard ascending, post order
        // within a source. Every inbox was drained by the previous
        // execute phase, since a shard with mail always runs.
        Tick floor = maxTick;
        for (auto &out : outbox_) {
            for (auto &m : out) {
                floor = std::min(floor, m.when);
                inbox_[m.dst].push_back(std::move(m));
            }
            out.clear();
        }
        for (const Tick t : next_)
            floor = std::min(floor, t);
        horizon_ = saturatingAdd(floor, lookahead_);

        // A shard runs if it has mail or an event below the horizon;
        // a window capped at maxTick also runs the events at maxTick.
        // No shard to run means every queue and inbox is empty.
        for (std::size_t s = 0; s < shards_; ++s)
            if (!inbox_[s].empty() || next_[s] < horizon_ ||
                (horizon_ == maxTick && !queues_[s]->empty()))
                runnable_.push_back(s);
        done_ = runnable_.empty();
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
                        executeShard(s);
            } catch (...) {
                std::lock_guard lock(errorMu_);
                if (!error_)
                    error_ = std::current_exception();
                failed_.store(true, std::memory_order_relaxed);
            }
            leaveShard();
        }
    }

    void
    executeShard(std::size_t s)
    {
        auto &t = detail::tls();
        t.owner = this;
        t.shard = s;
        t.queue = queues_[s].get();
        t.tracer = sinks_[s];

        // Deliver this round's messages, already in (source shard,
        // post order) order. The queue's own seq numbering then fixes
        // execution order.
        auto &in = inbox_[s];
        for (auto &m : in)
            queues_[s]->schedule(m.when, std::move(m.fn));
        in.clear();
        // A window capped at maxTick leaves no later tick for a message
        // to land on, so it also covers the events at maxTick itself
        // (with one shard: the whole queue).
        if (horizon_ == maxTick)
            queues_[s]->run();
        else
            queues_[s]->runUntilBefore(horizon_);
    }

    void
    leaveShard()
    {
        detail::tls() = detail::ShardTls{};
    }

    std::size_t shards_ = 1;
    Tick lookahead_ = maxTick;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    // Message queues, indexed by shard. outbox_[s] is appended to
    // only by shard s; the completion step empties it into inbox_,
    // and inbox_[s] is drained only by shard s.
    std::vector<std::vector<CrossMsg>> outbox_;
    std::vector<std::vector<CrossMsg>> inbox_;
    std::vector<std::list<Task>> tasks_;
    Tracer *tracer_ = nullptr;
    std::vector<Tracer *> sinks_; //!< per shard: tracer_ or a buffer
    std::vector<std::unique_ptr<BufferingTracer>> buffers_;

    // Round state: written in the completion step / under errorMu_,
    // read by workers after the barrier (which supplies the
    // happens-before edges). next_[s] is shard s's next-event tick
    // as of its last run; runnable_ lists, ascending, the shards that
    // run this round (shard s on worker s % W).
    std::vector<Tick> next_;
    std::vector<std::size_t> runnable_;
    Tick horizon_ = 0;
    bool done_ = false;
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;
    std::mutex errorMu_;
};

/**
 * RAII shard context for build/spawn code on the main thread: while
 * alive, Simulation::events() of the guarded simulation resolves to
 * the shard's queue, so tasks spawned under the guard schedule their
 * first events — and post their cross-shard messages — as that
 * shard. On a one-shard simulation every guard names shard 0, which
 * is where unguarded calls land anyway.
 */
class ShardGuard
{
  public:
    ShardGuard(ShardSet &set, std::size_t shard) : saved_(detail::tls())
    {
        detail::tls() = {&set, shard, &set.queue(shard),
                         set.tracerFor(shard)};
    }

    ShardGuard(const ShardGuard &) = delete;
    ShardGuard &operator=(const ShardGuard &) = delete;

    ~ShardGuard() { detail::tls() = saved_; }

  private:
    detail::ShardTls saved_;
};

} // namespace pdes

} // namespace san::sim

#endif // SAN_SIM_PDES_HH
