/**
 * @file
 * Unit and property tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Random.hh"
#include "sim/Types.hh"

namespace {

using namespace san::sim;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTick(), maxTick);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(ns(30), [&] { order.push_back(3); });
    q.schedule(ns(10), [&] { order.push_back(1); });
    q.schedule(ns(20), [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), ns(30));
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(ns(5), [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SchedulingInThePastClampsToNow)
{
    EventQueue q;
    Tick seen = maxTick;
    q.schedule(ns(100), [&] {
        q.schedule(ns(1), [&] { seen = q.now(); }); // "in the past"
    });
    q.run();
    EXPECT_EQ(seen, ns(100));
}

TEST(EventQueue, AfterSchedulesRelativeToNow)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(ns(10), [&] { q.after(ns(5), [&] { seen = q.now(); }); });
    q.run();
    EXPECT_EQ(seen, ns(15));
}

TEST(EventQueue, CallbackMaySchedule)
{
    // An event scheduling another event at the same tick runs it
    // in the same pass.
    EventQueue q;
    int depth = 0;
    q.schedule(0, [&] {
        q.schedule(0, [&] {
            q.schedule(0, [&] { depth = 3; });
            depth = 2;
        });
        depth = 1;
    });
    q.run();
    EXPECT_EQ(depth, 3);
}

TEST(EventQueue, RunUntilBeforeStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        q.schedule(ns(i * 10), [&] { ++count; });
    q.runUntilBefore(ns(50));
    EXPECT_EQ(count, 4);
    EXPECT_EQ(q.now(), ns(40));
    q.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilBeforeKeepsTimeWhenDrained)
{
    // Draining the queue leaves the clock at the last event, not at
    // the limit; an empty queue's clock does not move at all.
    EventQueue q;
    q.runUntilBefore(ns(123));
    EXPECT_EQ(q.now(), 0u);
    q.schedule(ns(7), [] {});
    q.runUntilBefore(ns(123));
    EXPECT_EQ(q.now(), ns(7));
}

TEST(EventQueue, RunUntilBeforeExcludesEventsExactlyAtLimit)
{
    // The window is exclusive: an event scheduled exactly at the
    // limit waits for the next pass.
    EventQueue q;
    int fired = 0;
    q.schedule(ns(49), [&] { ++fired; });
    q.schedule(ns(50), [&] { ++fired; });
    q.runUntilBefore(ns(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), ns(49));
    EXPECT_EQ(q.nextEventTick(), ns(50));
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilBeforeRunsCallbackScheduledAtNow)
{
    // A callback below the limit that schedules another event at the
    // same tick keeps the pass going until that tick is exhausted; an
    // event it schedules at the limit waits.
    EventQueue q;
    std::vector<int> order;
    q.schedule(ns(10), [&] {
        order.push_back(1);
        q.schedule(q.now(), [&] { order.push_back(2); });
        q.schedule(ns(11), [&] { order.push_back(3); });
    });
    q.runUntilBefore(ns(11));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), ns(10));
    EXPECT_EQ(q.nextEventTick(), ns(11));
}

TEST(EventQueue, MidStepSchedulingPreservesTickSeqOrder)
{
    // Regression test for the kernel overhaul: callbacks scheduled
    // from INSIDE a running callback must interleave with already
    // pending events in strict (tick, insertion-seq) order — the
    // arena hands out recycled slots, but ordering comes from the
    // heap's monotonically increasing sequence numbers, never from
    // slot identity.
    EventQueue q;
    std::vector<int> order;
    // Pre-scheduled events at ticks 10 and 20 (seq 0, 1).
    q.schedule(ns(10), [&] {
        order.push_back(1);
        // Same-tick events from within the pass: run after every
        // already pending tick-10 event, in scheduling order.
        q.schedule(ns(10), [&] { order.push_back(3); });
        q.schedule(ns(10), [&] { order.push_back(4); });
        // A tick-20 event scheduled mid-pass lands AFTER the
        // pre-scheduled tick-20 event (larger seq).
        q.schedule(ns(20), [&] { order.push_back(6); });
    });
    q.schedule(ns(20), [&] { order.push_back(5); });
    q.schedule(ns(10), [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, MidStepSchedulingOrderIsDeterministicUnderChurn)
{
    // Two identical runs with heavy mid-step scheduling (slot reuse,
    // heap growth/shrink) must execute callbacks in the same order.
    const auto drive = [](std::vector<int> &order) {
        EventQueue q;
        for (int i = 0; i < 16; ++i)
            q.schedule(ns(i % 4), [&order, &q, i] {
                order.push_back(i);
                if (i % 3 == 0)
                    q.after(ns(1), [&order, i] {
                        order.push_back(100 + i);
                    });
                if (i % 5 == 0)
                    q.schedule(q.now(), [&order, i] {
                        order.push_back(200 + i);
                    });
            });
        q.run();
    };
    std::vector<int> first, second;
    drive(first);
    drive(second);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.size(), 16u + 6u + 4u);
}

TEST(EventQueue, RunUntilBeforeLeavesTimeBehindPendingFutureEvents)
{
    // Contract: runUntilBefore(limit) never moves now() past the last
    // executed event, so an event the sharded kernel delivers later,
    // below the limit, is not in the past and runs at its own tick.
    EventQueue q;
    int fired = 0;
    q.schedule(ns(100), [&] { ++fired; });
    q.runUntilBefore(ns(40));
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.nextEventTick(), ns(100));
    Tick seen = 0;
    q.schedule(ns(30), [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, ns(30));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilBeforeInThePastIsANoOp)
{
    // Contract: a limit at or before now() neither runs events nor
    // rewinds the clock; calling twice with the same limit is
    // idempotent.
    EventQueue q;
    int fired = 0;
    q.schedule(ns(50), [&] { ++fired; });
    q.runUntilBefore(ns(51));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), ns(50));
    q.schedule(ns(80), [&] { ++fired; });
    q.runUntilBefore(ns(20)); // in the past
    EXPECT_EQ(q.now(), ns(50));
    EXPECT_EQ(fired, 1);
    q.runUntilBefore(ns(51)); // idempotent at the same limit
    EXPECT_EQ(q.now(), ns(50));
    EXPECT_EQ(fired, 1);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExecutedEventsCountsAcrossDrainedQueue)
{
    EventQueue q;
    EXPECT_EQ(q.executedEvents(), 0u);
    for (int i = 0; i < 5; ++i)
        q.schedule(ns(i), [] {});
    q.runUntilBefore(ns(3));
    EXPECT_EQ(q.executedEvents(), 3u); // ticks 0, 1, 2
    q.run();
    EXPECT_EQ(q.executedEvents(), 5u);
    // Draining past the end of the load must not change the count.
    q.runUntilBefore(ns(1000));
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.executedEvents(), 5u);
    // New work after a drain keeps accumulating.
    q.schedule(q.now(), [] {});
    q.run();
    EXPECT_EQ(q.executedEvents(), 6u);
}

/** Property: N random events always execute in nondecreasing order. */
class EventQueueProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EventQueueProperty, RandomLoadsExecuteSorted)
{
    Random rng(GetParam());
    EventQueue q;
    std::vector<Tick> fired;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        Tick when = rng.below(1000000);
        q.schedule(when, [&fired, &q] { fired.push_back(q.now()); });
    }
    q.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
    EXPECT_EQ(q.executedEvents(), static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 2, 3, 42, 0xdeadbeef));

// --- Ladder-scheduler edge cases -----------------------------------
//
// EventQueue is BasicEventQueue<LadderScheduler>; these tests pin the
// window mechanics (bucket spans, spill/refill, rebases) against the
// public determinism contract. The bucket width starts at
// scheduler().bucketWidth() and cannot retune mid-test (retunes need
// 64 horizon samples and an empty window).

TEST(LadderEventQueue, TierOccupancyPartitionsPendingEvents)
{
    EventQueue q;
    const Tick width = q.scheduler().bucketWidth();
    const Tick span =
        width * san::sim::detail::LadderScheduler::bucketCount;
    q.schedule(width / 2, [] {});  // current span -> drain heap
    q.schedule(width * 3, [] {});  // in-window -> ring bucket
    q.schedule(span * 4, [] {});   // beyond window -> spill heap
    const auto &lad = q.scheduler();
    EXPECT_EQ(lad.drainEvents(), 1u);
    EXPECT_EQ(lad.bucketedEvents(), 1u);
    EXPECT_EQ(lad.spillEvents(), 1u);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.nextEventTick(), width / 2);
    q.run();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), span * 4);
    // Three pending events reach the spilled tail via the small-queue
    // fallback swap, not a window rebase.
    EXPECT_GE(q.scheduler().stats().smallEnters, 1u);
}

TEST(LadderEventQueue, MidStepScheduleIntoDrainingBucketSpan)
{
    // A callback running deep inside a later bucket schedules more
    // events into the same (currently-draining) span: they must land
    // in the drain heap and run before anything in later buckets,
    // in (tick, seq) order.
    EventQueue q;
    std::vector<int> order;
    const Tick width = q.scheduler().bucketWidth();
    const Tick t0 = 3 * width + 100;
    q.schedule(t0, [&] {
        order.push_back(1);
        q.schedule(t0 + 2, [&] { order.push_back(3); });
        q.schedule(t0 + 1, [&] { order.push_back(2); });
        q.schedule(t0 + width, [&] { order.push_back(5); }); // next bucket
    });
    q.schedule(t0 + 3, [&] { order.push_back(4); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(LadderEventQueue, PastSchedulingClampsAfterWindowAdvance)
{
    // The clamp must hold even once the window has rebased far from
    // tick 0: a "past" schedule from a far-future callback lands in
    // the drain heap at now(), not in some dead bucket.
    EventQueue q;
    const Tick width = q.scheduler().bucketWidth();
    const Tick far = width * 5000; // beyond the initial window
    Tick seen = maxTick;
    q.schedule(far, [&] {
        q.schedule(ns(1), [&] { seen = q.now(); }); // deep past
    });
    q.run();
    EXPECT_EQ(seen, far);
}

TEST(LadderEventQueue, RunUntilBeforeLandsInsideBucketSpan)
{
    // runUntilBefore with a limit strictly inside a bucket's span
    // must split that bucket: events below the limit execute; events
    // at it, and later same-bucket events, stay pending.
    EventQueue q;
    int fired = 0;
    const Tick width = q.scheduler().bucketWidth();
    const Tick base = 2 * width;
    q.schedule(base + 10, [&] { ++fired; });
    q.schedule(base + 20, [&] { ++fired; });
    q.schedule(base + 30, [&] { ++fired; });
    q.runUntilBefore(base + 20);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), base + 10);
    EXPECT_EQ(q.nextEventTick(), base + 20);
    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(LadderEventQueue, FarFutureSpillRefillsInOrder)
{
    // Events far beyond the window spill into a heap and come back
    // in-window as the ladder rebases over them; execution order must
    // stay globally sorted regardless of which tier each event
    // visited.
    EventQueue q;
    std::vector<Tick> fired;
    const Tick width = q.scheduler().bucketWidth();
    const Tick span =
        width * san::sim::detail::LadderScheduler::bucketCount;
    for (int i = 9; i >= 0; --i) // descending insert order
        q.schedule(span * static_cast<Tick>(i + 2) + static_cast<Tick>(i),
                   [&] { fired.push_back(q.now()); });
    q.schedule(10, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.scheduler().spillEvents(), 10u);
    q.run();
    ASSERT_EQ(fired.size(), 11u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LT(fired[i - 1], fired[i]);
    // A population this small reaches the spilled events through the
    // small-queue fallback (one swap), not a window rebase.
    const auto &st = q.scheduler().stats();
    EXPECT_GE(st.smallEnters, 1u);
    EXPECT_GE(st.spillPushes, 10u);
}

TEST(LadderEventQueue, EventsAtMaxTickExecuteInSeqOrder)
{
    // maxTick events can never be covered by a (saturated) window;
    // the rebase fallback must still feed them to the drain heap one
    // by one, in sequence order, without looping.
    EventQueue q;
    std::vector<int> order;
    q.schedule(maxTick, [&] { order.push_back(1); });
    q.schedule(maxTick, [&] { order.push_back(2); });
    q.schedule(ns(5), [&] { order.push_back(0); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), maxTick);
}

TEST(LadderEventQueue, PostNowRunsAtCurrentTickAfterPendingPeers)
{
    // postNow() takes the next sequence number, exactly like
    // after(0, ...): already-pending events at the same tick run
    // first.
    EventQueue q;
    std::vector<int> order;
    q.schedule(ns(10), [&] {
        order.push_back(1);
        q.postNow([&] { order.push_back(3); });
    });
    q.schedule(ns(10), [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), ns(10));
}

TEST(LadderEventQueue, SmallQueueFallbackEntersAndExits)
{
    // A tiny population degenerates to a plain binary heap once the
    // ring drains (the paper figures run at 1-20 pending events);
    // growth past the exit threshold re-partitions into the tiers.
    // The mode switches must be invisible to execution order.
    using Ladder = san::sim::detail::LadderScheduler;
    EventQueue q;
    const Tick width = q.scheduler().bucketWidth();
    q.schedule(width * 3, [] {});                 // ring bucket
    q.schedule(width * Ladder::bucketCount * 4, [] {}); // spill
    q.run();
    EXPECT_GE(q.scheduler().stats().smallEnters, 1u);
    EXPECT_EQ(q.scheduler().stats().smallExits, 0u);

    // Still in small mode: everything lands in the drain (side) heap
    // regardless of horizon, until the population crosses smallExit.
    std::vector<Tick> fired;
    const std::size_t n = Ladder::smallExit + 40;
    for (std::size_t i = 0; i < n; ++i) {
        const Tick when = q.now() + 1 + ((i * 7919) % 1000) * width;
        q.schedule(when, [&fired, &q] { fired.push_back(q.now()); });
        if (q.size() <= Ladder::smallExit) {
            EXPECT_EQ(q.scheduler().drainEvents(), q.size());
        }
    }
    EXPECT_GE(q.scheduler().stats().smallExits, 1u);
    // Re-partitioned: the tiers hold the population again.
    EXPECT_EQ(q.scheduler().drainEvents() +
                  q.scheduler().bucketedEvents() +
                  q.scheduler().spillEvents(),
              q.size());
    q.run();
    EXPECT_EQ(fired.size(), n);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Types, UnitConversions)
{
    EXPECT_EQ(ns(1), ps(1000));
    EXPECT_EQ(us(1), ns(1000));
    EXPECT_EQ(ms(1), us(1000));
    EXPECT_EQ(sec(1), ms(1000));
    EXPECT_DOUBLE_EQ(toSeconds(sec(2)), 2.0);
    EXPECT_DOUBLE_EQ(toMicros(us(7)), 7.0);
}

TEST(Types, FrequencyCycleMath)
{
    Frequency host(2'000'000'000);   // 2 GHz
    Frequency sw(500'000'000);       // 500 MHz
    EXPECT_EQ(host.period(), ps(500));
    EXPECT_EQ(sw.period(), ps(2000));
    EXPECT_EQ(host.cycles(4), ns(2));
    EXPECT_EQ(sw.cycles(3), ns(6));
}

TEST(Types, TransferTime)
{
    // 1 GB/s -> 1 byte per ns.
    PsPerByte gbs = bytesPerSec(1e9);
    EXPECT_EQ(transferTime(512, gbs), ns(512));
    // 1.6 GB/s RDRAM: 128 bytes = 80 ns.
    EXPECT_EQ(transferTime(128, bytesPerSec(1.6e9)), ns(80));
}

} // namespace
