/**
 * @file
 * Discrete-event queue: the heart of the simulator.
 *
 * Events are (tick, callback) pairs ordered by tick, with insertion
 * order breaking ties so simulation is fully deterministic.
 *
 * The hot path is allocation-free in the steady state: callbacks are
 * stored in small-buffer-optimized event slots (detail::SlotArena —
 * captures up to 48 B inline, larger ones in pooled blocks recycled
 * through free lists), and ordering lives in plain 24-byte
 * (tick, seq, slot) records (detail::EventRef) managed by a pluggable
 * scheduler policy:
 *
 *  - detail::HeapScheduler — an explicit binary heap over a
 *    std::vector: O(log n) schedule/pop. This is the PR 4 design,
 *    kept as the baseline the micro-bench and the cross-kernel fuzz
 *    test measure the ladder against.
 *  - detail::LadderScheduler — a hybrid ladder queue: a ring of
 *    near-future tick buckets (power-of-two width, auto-tuned from
 *    the observed scheduling horizon) gives O(1) schedule and
 *    amortized O(1)-ish pop for the dominant short-horizon events
 *    (link serialization, routing latencies, credit returns, channel
 *    wakeups), while far-future events spill into a binary heap and
 *    refill the ring as the window slides over them. This is the
 *    production scheduler (EventQueue).
 *
 * Determinism contract (identical for both policies): events execute
 * in strictly nondecreasing (tick, seq) order, where seq is the
 * global schedule order. A callback scheduling new events mid-step
 * sees them sequenced after every already-pending event at the same
 * tick. This ordering is byte-identical to the pre-ladder kernels, so
 * run fingerprints and golden stats are unchanged; the cross-kernel
 * fuzz test (tests/sim_ladder_fuzz_test.cc) replays random schedules
 * through both policies and asserts the execution orders match
 * exactly.
 */

#ifndef SAN_SIM_EVENT_QUEUE_HH
#define SAN_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/EventSlot.hh"
#include "sim/Types.hh"

namespace san::sim {

namespace detail {

/** Ordering record: the callback lives in the SlotArena, so scheduler
 * data structures move 24 trivially-copyable bytes. */
struct EventRef {
    Tick when;
    std::uint64_t seq;
    std::uint32_t slot;

    bool
    before(const EventRef &o) const
    {
        if (when != o.when)
            return when < o.when;
        return seq < o.seq;
    }
};

/** @{ Binary min-heap primitives over a vector of EventRefs, shared
 * by the heap scheduler, the ladder's spill heap and its drain heap.
 * Hand-rolled sift-up/down: hole-based moves, no swaps. */
inline void
heapPush(std::vector<EventRef> &heap, EventRef e)
{
    heap.push_back(e);
    std::size_t i = heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!e.before(heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

inline void
heapPop(std::vector<EventRef> &heap)
{
    const EventRef last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        std::size_t kid = 2 * i + 1;
        if (kid >= n)
            break;
        if (kid + 1 < n && heap[kid + 1].before(heap[kid]))
            ++kid;
        if (!heap[kid].before(last))
            break;
        heap[i] = heap[kid];
        i = kid;
    }
    heap[i] = last;
}
/** @} */

/**
 * The plain scheduler: one explicit binary heap. O(log n) push/pop,
 * but n is the full pending-event population. The benches and
 * examples other than micro_kernel stay shallow (fig05 peaks at 19
 * pending events; the full fabric_scale, the deepest, at 2,877), but
 * at micro_kernel's 10k and 100k depths every sift walks a
 * multi-hundred-KB array.
 */
class HeapScheduler
{
  public:
    /** Policy tag used in bench/test reporting. */
    static constexpr const char *policyName = "heap";

    /** Add @p e. @p now is unused (the ladder observes horizons). */
    void push(EventRef e, Tick) { heapPush(heap_, e); }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event (maxTick if none). */
    Tick
    minTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /** Remove and return the earliest pending event (queue nonempty). */
    EventRef
    popMin()
    {
        const EventRef e = heap_.front();
        heapPop(heap_);
        return e;
    }

    /** Hand every pending record to @p fn and clear (teardown). */
    template <typename F>
    void
    drainTo(F &&fn)
    {
        for (const EventRef &e : heap_)
            fn(e);
        heap_.clear();
    }

  private:
    std::vector<EventRef> heap_;
};

/**
 * Hybrid ladder queue. Three tiers, partitioned by distance from the
 * currently-draining bucket span:
 *
 *   drain tier   — every pending event with when < curSpanEnd_, split
 *                  into a sorted RUN (the adopted bucket, sorted once,
 *                  popped O(1) from the back) and a small side heap
 *                  holding mid-step schedules into the current span.
 *                  The global minimum always lives in this tier when
 *                  it is nonempty: min(run.back(), side.front()).
 *   bucket ring  — bucketCount buckets of width 2^shift_ ticks each,
 *                  covering [curSpanStart_, windowLimit_). An
 *                  in-window schedule is one append to an unsorted
 *                  vector: O(1). When the window reaches a bucket it
 *                  is adopted: swapped into the run and sorted —
 *                  O(k log k) once per k events, and the sort touches
 *                  a few cache-hot KB instead of sifting a
 *                  multi-hundred-KB heap per event.
 *   spill heap   — events at or beyond windowLimit_. As the window
 *                  slides one bucket per advance, newly in-window
 *                  spill events refill into the ring (amortized one
 *                  comparison per advance plus O(log) per migrated
 *                  event).
 *
 * Epoch advance: when the drain heap empties, the window slides
 * bucket by bucket (refilling from spill) until it finds a nonempty
 * bucket to adopt. When the ring is empty too, the window *jumps* —
 * rebased onto the earliest spill event — instead of crawling over
 * dead spans, and the bucket width retunes from the horizon
 * statistics observed since the last tune.
 *
 * Width auto-tuning: push() accumulates log2 of the scheduling
 * horizon (when - now) of every future-dated event; the width is the
 * power of two that makes the ring span ~2x the GEOMETRIC mean
 * horizon, so the common schedule lands in a bucket rather than the
 * spill heap. The geometric mean matters: an arithmetic mean over a
 * bimodal schedule (mostly short wakeups plus occasional far-future
 * timeouts) is dragged toward the outliers and sizes buckets so wide
 * that every short event degenerates into the drain heap. Zero-delay
 * wakeups (Channel/Gate resumptions) are excluded — they say nothing
 * about where timed events land and would otherwise drag the width
 * to the minimum. Retunes happen only with the drain heap
 * empty (advance/rebase), so re-bucketing never reorders anything;
 * tuning is a pure function of the executed schedule, hence
 * deterministic.
 *
 * Small-queue fallback: bucket bookkeeping cannot beat a depth-3
 * binary heap, and whole-simulator workloads (the paper figures)
 * spend most of their run at 1-20 pending events. When the ring
 * drains with at most smallEnter events left, the scheduler swaps
 * the spill heap in as the side heap — at that moment it IS the
 * plain binary-heap scheduler — and stays there until the population
 * grows past smallExit, when it re-anchors the window at the current
 * tick and re-partitions.
 *
 * Determinism: the three tiers partition pending events by tick range
 * (drain < curSpanEnd_ <= ring < windowLimit_ <= spill), adoption
 * heapifies a bucket under the same (tick, seq) comparator the heaps
 * use, and mid-step schedules into the currently-draining span go
 * straight into the drain heap — so popMin() always returns the
 * global (tick, seq) minimum, exactly as the plain heap does. Tier
 * placement (small mode included) only ever decides cost, never
 * order.
 */
class LadderScheduler
{
  public:
    static constexpr const char *policyName = "ladder";

    /** Ring size; power of two so slot math is a mask. */
    static constexpr std::size_t bucketCount = 256;
    /** Bucket width bounds: 2^4 ps .. 2^36 ps (~69 ms). */
    static constexpr unsigned minShift = 4;
    static constexpr unsigned maxShift = 36;
    /** Horizon samples that arm a width check on the next advance.
     * Deep queues accumulate samples much faster than they rotate the
     * ring, so waiting for a full rotation alone would leave a badly
     * sized ring in place for hundreds of thousands of events. */
    static constexpr std::uint64_t retuneSamples = 8192;
    /** Fewest horizon samples desiredShift() will act on — and the
     * floor the phase-tracking decay must never drop below (a
     * near-empty queue rebases about once per event; halving the
     * sample count every time would freeze the width forever). */
    static constexpr std::uint64_t tuneMinSamples = 64;
    /** @{ Small-queue fallback thresholds. At a handful of pending
     * events a depth-3 binary heap beats any bucket bookkeeping, so
     * when the ring drains with at most smallEnter events left in
     * spill the scheduler swaps the spill heap in as a plain binary
     * heap (O(1) — the containers share comparator and layout) and
     * stops bucketing. Growth past smallExit re-partitions; the gap
     * is hysteresis so a population hovering near the boundary does
     * not thrash between modes. The paper figures spend most of their
     * run at 1-20 pending events, which is exactly this regime. */
    static constexpr std::size_t smallEnter = 64;
    static constexpr std::size_t smallExit = 192;
    /** @} */

    /** Occupancy / behavior counters (obs gauges, tests, benches). */
    struct Stats {
        std::uint64_t bucketPushes = 0; //!< O(1) ring inserts
        std::uint64_t drainPushes = 0;  //!< current-span heap inserts
        std::uint64_t spillPushes = 0;  //!< far-future heap inserts
        std::uint64_t adoptions = 0;    //!< buckets heapified for drain
        std::uint64_t refills = 0;      //!< spill events pulled in-window
        std::uint64_t rebases = 0;      //!< empty-window jumps
        std::uint64_t retunes = 0;      //!< bucket-width changes
        std::uint64_t smallEnters = 0;  //!< drops into pure-heap mode
        std::uint64_t smallExits = 0;   //!< growth-forced re-partitions
    };

    void
    push(EventRef e, Tick now)
    {
        // Observe the scheduling horizon of timed events only; see
        // the class comment for why zero-delay wakeups are excluded
        // and why the accumulator is logarithmic.
        if (e.when > now) {
            horizonLogSum_ += std::bit_width(e.when - now);
            ++horizonCount_;
        }
        ++size_;
        if (smallMode_) {
            // Small-queue fallback: every pending event lives in the
            // side heap, which at these depths is exactly the plain
            // binary-heap scheduler. Leave once the population
            // outgrows it.
            heapPush(side_, e);
            if (size_ > smallExit)
                leaveSmallMode(now);
            return;
        }
        place(e);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    Tick
    minTick() const
    {
        Tick m = maxTick;
        if (!run_.empty())
            m = run_.back().when;
        if (!side_.empty() && side_.front().when < m)
            m = side_.front().when;
        if (m != maxTick)
            return m;
        if (ringCount_ > 0) {
            // First nonempty bucket in window order holds the global
            // minimum (spill events are all >= windowLimit_); the
            // occupancy mask finds it without probing empty buckets.
            const auto &b =
                buckets_[(curIdx_ + nextBucket()) & (bucketCount - 1)];
            Tick min = maxTick;
            for (const EventRef &e : b)
                min = e.when < min ? e.when : min;
            return min;
        }
        return spill_.empty() ? maxTick : spill_.front().when;
    }

    EventRef
    popMin()
    {
        if (run_.empty() && side_.empty())
            advance();
        // The run's minimum sits at its back; (tick, seq) uniqueness
        // makes before() a strict total order, so the pick between
        // run and side heap is unambiguous.
        if (side_.empty() ||
            (!run_.empty() && run_.back().before(side_.front()))) {
            const EventRef e = run_.back();
            run_.pop_back();
            --size_;
            return e;
        }
        const EventRef e = side_.front();
        heapPop(side_);
        --size_;
        return e;
    }

    template <typename F>
    void
    drainTo(F &&fn)
    {
        for (const EventRef &e : run_)
            fn(e);
        run_.clear();
        for (const EventRef &e : side_)
            fn(e);
        side_.clear();
        for (auto &b : buckets_) {
            for (const EventRef &e : b)
                fn(e);
            b.clear();
        }
        occupied_ = {};
        for (const EventRef &e : spill_)
            fn(e);
        spill_.clear();
        size_ = ringCount_ = 0;
    }

    /** @{ Introspection (gauges in src/obs, tests, micro-bench). */
    Tick bucketWidth() const { return Tick(1) << shift_; }
    std::size_t drainEvents() const { return run_.size() + side_.size(); }
    std::size_t bucketedEvents() const { return ringCount_; }
    std::size_t spillEvents() const { return spill_.size(); }
    const Stats &stats() const { return stats_; }
    /** @} */

  private:
    /** File @p e into the tier its tick belongs to. The current span
     * goes to the side heap: the sorted run is never inserted into,
     * only adopted wholesale and popped. */
    void
    place(EventRef e)
    {
        if (e.when < curSpanEnd_) {
            heapPush(side_, e);
            ++stats_.drainPushes;
        } else if (e.when < windowLimit_) {
            const std::size_t dist =
                static_cast<std::size_t>((e.when - curSpanStart_) >>
                                         shift_);
            const std::size_t idx = (curIdx_ + dist) & (bucketCount - 1);
            buckets_[idx].push_back(e);
            occupied_[idx / 64] |= std::uint64_t(1) << (idx % 64);
            ++ringCount_;
            ++stats_.bucketPushes;
        } else {
            heapPush(spill_, e);
            ++stats_.spillPushes;
        }
    }

    /** The power-of-two width whose ring spans ~4x the geometric-mean
     * observed horizon (falls back to the current width without
     * samples): width = 2^(avg log2 horizon + 2) / bucketCount. The
     * 4x margin matters because the geometric mean of a linear-
     * uniform delay distribution sits near max/e — a tighter span
     * would push the long tail of perfectly ordinary horizons through
     * the spill heap twice. */
    unsigned
    desiredShift() const
    {
        if (horizonCount_ < tuneMinSamples)
            return shift_;
        const unsigned avg =
            static_cast<unsigned>(horizonLogSum_ / horizonCount_);
        constexpr unsigned ringBits = 6; // log2(bucketCount) - 2
        const unsigned s = avg > ringBits + minShift ? avg - ringBits
                                                     : minShift;
        return s > maxShift ? maxShift : s;
    }

    /**
     * Rebase the window so the current bucket span starts at (the
     * width-aligned floor of) @p start, optionally retuning the
     * width, and re-file every ring/spill event that now falls inside
     * the new window. Only called with the drain heap empty; events
     * earlier than the new span (none in practice) would still be
     * placed correctly, into the drain heap.
     */
    void
    rebuildAt(Tick start)
    {
        const unsigned want = desiredShift();
        if (want != shift_) {
            shift_ = want;
            ++stats_.retunes;
        }
        // Decay the horizon statistics so tuning tracks the current
        // workload phase rather than the whole run — but never below
        // the tuner's sample floor (see tuneMinSamples).
        if (horizonCount_ >= 2 * tuneMinSamples) {
            horizonLogSum_ /= 2;
            horizonCount_ /= 2;
        }
        std::vector<EventRef> pending;
        pending.reserve(side_.size() + ringCount_);
        // Heap order within side_ is irrelevant here: every collected
        // event is re-placed independently. Normal rebases arrive
        // with side_ empty; leaveSmallMode() arrives with *only*
        // side_ populated.
        pending.insert(pending.end(), side_.begin(), side_.end());
        side_.clear();
        if (ringCount_ > 0) {
            for (auto &b : buckets_) {
                pending.insert(pending.end(), b.begin(), b.end());
                b.clear();
            }
            occupied_ = {};
            ringCount_ = 0;
        }
        curIdx_ = 0;
        curSpanStart_ = start & ~(bucketWidth() - 1);
        // Bounds near the end of time cap at maxTick instead of
        // wrapping. A capped windowLimit_ only narrows the ring, so
        // bucket distances never exceed bucketCount - 1.
        curSpanEnd_ = saturatingAdd(curSpanStart_, bucketWidth());
        windowLimit_ =
            saturatingAdd(curSpanStart_, Tick(bucketCount) << shift_);
        for (const EventRef &e : pending)
            place(e);
        refill();
        // Saturated corner: a window capped at maxTick cannot cover
        // events scheduled at maxTick itself. Feed the earliest one
        // to the drain tier directly so every rebase makes progress;
        // successive rebases pop them in (tick, seq) order.
        if (run_.empty() && side_.empty() && ringCount_ == 0 &&
            !spill_.empty()) {
            const EventRef e = spill_.front();
            heapPop(spill_);
            heapPush(side_, e);
        }
        sinceRebuild_ = 0;
    }

    /** The population outgrew the small-queue fallback: re-anchor the
     * window at the current time and re-partition every pending event
     * out of the side heap. Tier placement never affects execution
     * order, so the transition is invisible to the schedule. */
    void
    leaveSmallMode(Tick now)
    {
        smallMode_ = false;
        ++stats_.smallExits;
        rebuildAt(now);
    }

    /** Pull every spill event that the window now covers into the
     * ring (or the drain heap, for the current span). */
    void
    refill()
    {
        while (!spill_.empty() && spill_.front().when < windowLimit_) {
            const EventRef e = spill_.front();
            heapPop(spill_);
            place(e);
            ++stats_.refills;
        }
    }

    /**
     * Distance, in buckets, from the draining slot to the next
     * nonempty one in window order (1 .. bucketCount - 1), or
     * bucketCount when the ring is empty. Reads the occupancy mask a
     * word at a time, starting just past curIdx_ and wrapping. The
     * draining slot's own bucket is always empty (its events went to
     * the drain tier), so the wrap never returns distance 0.
     */
    std::size_t
    nextBucket() const
    {
        const std::size_t from = (curIdx_ + 1) & (bucketCount - 1);
        const std::size_t word = from / 64;
        const std::uint64_t above = ~std::uint64_t(0) << (from % 64);
        for (std::size_t k = 0; k <= occupiedWords; ++k) {
            const std::size_t w = (word + k) % occupiedWords;
            std::uint64_t bits = occupied_[w];
            if (k == 0)
                bits &= above;
            else if (k == occupiedWords)
                bits &= ~above;
            if (bits != 0) {
                const std::size_t idx = w * 64 + std::countr_zero(bits);
                return (idx - curIdx_) & (bucketCount - 1);
            }
        }
        return bucketCount;
    }

    /**
     * The drain tier ran dry but events remain: slide (or jump) the
     * window forward until the next event is in the drain tier.
     */
    void
    advance()
    {
        assert(size_ > 0 && run_.empty() && side_.empty());
        if (ringCount_ == 0) {
            // Ring empty: everything pending sits in the spill heap.
            // A small population drops into the pure-heap fallback —
            // spill_ and side_ are the same comparator and layout, so
            // entry is one vector swap. A large one jumps the window
            // straight onto the earliest spill event (and takes the
            // chance to retune) instead of crawling over dead spans.
            if (spill_.size() <= smallEnter) {
                side_.swap(spill_);
                smallMode_ = true;
                ++stats_.smallEnters;
                return;
            }
            ++stats_.rebases;
            rebuildAt(spill_.front().when);
            assert(!side_.empty());
            return;
        }
        // A full rotation since the last rebuild — or a fresh batch
        // of horizon samples — with a stale width: rebuild in place
        // (re-buckets the ring; O(ring), amortized by the events that
        // earned it). A width still on target re-arms the counters so
        // the check stays off the common path.
        if (sinceRebuild_ >= bucketCount ||
            horizonCount_ >= retuneSamples) {
            if (desiredShift() != shift_) {
                rebuildAt(curSpanEnd_);
                if (!side_.empty())
                    return;
            } else {
                sinceRebuild_ = 0;
                if (horizonCount_ >= 2 * tuneMinSamples) {
                    horizonLogSum_ /= 2;
                    horizonCount_ /= 2;
                }
            }
        }
        // Jump straight to the next nonempty bucket, found in the
        // occupancy mask, with the span arithmetic done once for the
        // whole jump instead of per slid-over bucket. Equivalent to
        // sliding one bucket at a time: a ring event never sits more
        // than bucketCount - 1 slots out (place() spills anything past
        // windowLimit_), and batching the refill files every spill
        // event into the same bucket it would have reached
        // incrementally — (curIdx_ + dist) advances in lockstep with
        // curSpanStart_, and refilled events all land strictly behind
        // the adopted bucket (their ticks are >= the pre-jump
        // windowLimit_).
        const std::size_t d = nextBucket();
        assert(d > 0 && d < bucketCount &&
               "ringCount_ out of sync with ring");
        const Tick step = Tick(d) << shift_;
        curIdx_ = (curIdx_ + d) & (bucketCount - 1);
        curSpanStart_ = saturatingAdd(curSpanStart_, step);
        curSpanEnd_ = saturatingAdd(curSpanEnd_, step);
        windowLimit_ = saturatingAdd(windowLimit_, step);
        sinceRebuild_ += d;
        refill();
        // Adopt: the whole bucket becomes the sorted run (descending,
        // so the minimum pops O(1) off the back). The swap trades
        // capacities, keeping both vectors allocation-free in the
        // steady state.
        auto &bucket = buckets_[curIdx_];
        ++stats_.adoptions;
        ringCount_ -= bucket.size();
        occupied_[curIdx_ / 64] &= ~(std::uint64_t(1) << (curIdx_ % 64));
        run_.swap(bucket);
        std::sort(run_.begin(), run_.end(),
                  [](const EventRef &a, const EventRef &b) {
                      return b.before(a);
                  });
    }

    std::vector<EventRef> run_;  //!< adopted bucket, sorted descending
    std::vector<EventRef> side_; //!< heap: mid-step same-span events
    std::array<std::vector<EventRef>, bucketCount> buckets_;
    /** One bit per ring bucket, set while the bucket holds events. */
    static constexpr std::size_t occupiedWords = bucketCount / 64;
    static_assert(bucketCount % 64 == 0);
    std::array<std::uint64_t, occupiedWords> occupied_{};
    std::vector<EventRef> spill_;

    unsigned shift_ = 16;     //!< initial width 65536 ps (~65 ns)
    std::size_t curIdx_ = 0;  //!< ring slot being drained
    Tick curSpanStart_ = 0;   //!< first tick of the draining span
    Tick curSpanEnd_ = Tick(1) << 16;
    Tick windowLimit_ = Tick(bucketCount) << 16;

    std::size_t size_ = 0;      //!< all pending events
    std::size_t ringCount_ = 0; //!< pending events in ring buckets
    std::size_t sinceRebuild_ = 0;
    bool smallMode_ = false;    //!< pure-heap fallback active

    std::uint64_t horizonLogSum_ = 0;
    std::uint64_t horizonCount_ = 0;

    Stats stats_;
};

} // namespace detail

/**
 * Deterministic priority queue of timed callbacks, generic over the
 * ordering policy (see the schedulers above). Use the EventQueue
 * alias below; HeapEventQueue exists for the cross-kernel fuzz test
 * and the micro-bench baseline.
 */
template <typename Scheduler>
class BasicEventQueue
{
  public:
    /** Captures up to this size are stored inline in the event slot
     * (no allocation); larger captures use the pooled overflow path. */
    static constexpr std::size_t inlineCaptureBytes =
        detail::SlotArena::inlineBytes;

    /**
     * Observes every executed event. The (tick, sequence-number) pair
     * identifies one event uniquely and deterministically, which makes
     * an observer the natural place to fold a run fingerprint
     * (obs::RunFingerprint) or feed an execution trace.
     */
    class Observer
    {
      public:
        virtual ~Observer() = default;
        /** Called once per executed event, before its callback runs. */
        virtual void onEvent(Tick when, std::uint64_t seq) = 0;
    };

    BasicEventQueue() = default;
    BasicEventQueue(const BasicEventQueue &) = delete;
    BasicEventQueue &operator=(const BasicEventQueue &) = delete;

    ~BasicEventQueue()
    {
        sched_.drainTo(
            [this](const detail::EventRef &e) { arena_.recycle(e.slot); });
    }

    /** Install (or clear, with nullptr) the execution observer. */
    void setObserver(Observer *obs) { observer_ = obs; }
    Observer *observer() const { return observer_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule callable @p fn at absolute time @p when (>= now). */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        if (when < now_)
            when = now_;
        const std::uint32_t slot = arena_.emplace(std::forward<F>(fn));
        sched_.push(detail::EventRef{when, nextSeq_++, slot}, now_);
    }

    /** Schedule @p fn @p delta ticks from now. */
    template <typename F>
    void
    after(Tick delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at the current tick: the zero-delay wakeup the
     * synchronization primitives (Channel, Gate) lean on.
     * Identical ordering to after(0, fn) — the event still takes the
     * next sequence number — but skips the clamp arithmetic and, on
     * the ladder, stays out of the bucket-width horizon statistics.
     */
    template <typename F>
    void
    postNow(F &&fn)
    {
        const std::uint32_t slot = arena_.emplace(std::forward<F>(fn));
        sched_.push(detail::EventRef{now_, nextSeq_++, slot}, now_);
    }

    bool empty() const { return sched_.empty(); }
    std::size_t size() const { return sched_.size(); }

    /** Time of the next pending event (maxTick if none). */
    Tick nextEventTick() const { return sched_.minTick(); }

    /**
     * Execute a single event, advancing time to it.
     * @retval true an event was executed; false the queue was empty.
     */
    bool
    step()
    {
        if (sched_.empty())
            return false;
        // Pop the ordering record before invoking, so a callback that
        // schedules new events sees a consistent queue. The slot
        // itself is chunk-stable and recycled only after the call.
        const detail::EventRef top = sched_.popMin();
        now_ = top.when;
        if (observer_)
            observer_->onEvent(top.when, top.seq);
        arena_.runAndRecycle(top.slot);
        return true;
    }

    /** Run until the queue drains. @return final time. */
    Tick
    run()
    {
        while (step()) {}
        return now_;
    }

    /**
     * Run every event with tick strictly below @p limit, leaving
     * events at or after @p limit pending and time at the last
     * executed event (NOT advanced to @p limit). This is the
     * conservative-window primitive of the sharded kernel: a shard
     * granted the window [floor, horizon) may execute everything it
     * can prove safe — ticks < horizon — but must not let now()
     * overtake events a later cross-shard message could still insert
     * at horizon or beyond.
     */
    Tick
    runUntilBefore(Tick limit)
    {
        while (!sched_.empty() && sched_.minTick() < limit)
            step();
        assert((sched_.empty() || sched_.minTick() >= limit) &&
               "runUntilBefore left an event below the limit");
        return now_;
    }

    /** Total number of events executed so far (for stats/benches). */
    std::uint64_t executedEvents() const { return nextSeq_ - size(); }

    /** The ordering policy (occupancy gauges, tests, benches). */
    const Scheduler &scheduler() const { return sched_; }

    /** @{ Slot-allocator introspection (tests and micro-benches). */
    std::uint64_t overflowAllocs() const { return arena_.overflowAllocs(); }
    std::uint64_t overflowReuses() const { return arena_.overflowReuses(); }
    std::size_t slotChunks() const { return arena_.chunkCount(); }
    /** @} */

  private:
    Scheduler sched_;
    detail::SlotArena arena_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    Observer *observer_ = nullptr;
};

/** The production event queue: ladder-queue scheduling. */
using EventQueue = BasicEventQueue<detail::LadderScheduler>;

/** The PR 4 binary-heap kernel, kept as a measurable baseline (the
 * micro-bench) and a determinism oracle (the cross-kernel fuzz test). */
using HeapEventQueue = BasicEventQueue<detail::HeapScheduler>;

} // namespace san::sim

#endif // SAN_SIM_EVENT_QUEUE_HH
