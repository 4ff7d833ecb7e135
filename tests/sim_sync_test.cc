/**
 * @file
 * Tests for channels, gates, semaphores and latches.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/Simulation.hh"
#include "sim/Sync.hh"

namespace {

using namespace san::sim;

Task
producer(Channel<int> &ch, int n, Tick gap)
{
    for (int i = 0; i < n; ++i) {
        co_await Delay{gap};
        ch.push(i);
    }
}

Task
consumer(Simulation &sim, Channel<int> &ch, int n,
         std::vector<std::pair<int, Tick>> &log)
{
    for (int i = 0; i < n; ++i) {
        int v = co_await ch.pop();
        log.push_back({v, sim.now()});
    }
}

TEST(Channel, ValuesArriveInOrderAtProducerTime)
{
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<std::pair<int, Tick>> log;
    sim.spawn(producer(ch, 3, ns(10)));
    sim.spawn(consumer(sim, ch, 3, log));
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(log[i].first, i);
        EXPECT_EQ(log[i].second, ns(10) * (i + 1));
    }
}

TEST(Channel, BufferedValuesPopImmediately)
{
    Simulation sim;
    Channel<std::string> ch(sim);
    ch.push("a");
    ch.push("b");
    EXPECT_EQ(ch.size(), 2u);
    std::vector<std::string> got;
    sim.spawn([](Channel<std::string> &c, std::vector<std::string> &out)
                  -> Task {
        out.push_back(co_await c.pop());
        out.push_back(co_await c.pop());
    }(ch, got));
    sim.run();
    EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

TEST(Channel, TryPopDoesNotBlock)
{
    Simulation sim;
    Channel<int> ch(sim);
    EXPECT_FALSE(ch.tryPop().has_value());
    ch.push(7);
    auto v = ch.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
}

TEST(Channel, MultiplePoppersServedFifo)
{
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<std::pair<int, int>> got; // (popper id, value)
    auto popOne = [](Channel<int> &c, std::vector<std::pair<int, int>> &out,
                     int id) -> Task {
        int v = co_await c.pop();
        out.push_back({id, v});
    };
    sim.spawn(popOne(ch, got, 0));
    sim.spawn(popOne(ch, got, 1));
    sim.events().schedule(ns(5), [&] { ch.push(100); });
    sim.events().schedule(ns(6), [&] { ch.push(200); });
    sim.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
    EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
}

TEST(Gate, ReleasesAllWaitersOnOpen)
{
    Simulation sim;
    Gate gate(sim);
    int released = 0;
    auto waiter = [](Gate &g, int &n) -> Task {
        co_await g.wait();
        ++n;
    };
    for (int i = 0; i < 5; ++i)
        sim.spawn(waiter(gate, released));
    sim.events().schedule(ns(50), [&] { gate.open(); });
    sim.run();
    EXPECT_EQ(released, 5);
    EXPECT_TRUE(gate.isOpen());
}

TEST(Gate, OpenGatePassesImmediately)
{
    Simulation sim;
    Gate gate(sim);
    gate.open();
    Tick when = maxTick;
    sim.spawn([](Simulation &s, Gate &g, Tick &w) -> Task {
        co_await g.wait();
        w = s.now();
    }(sim, gate, when));
    sim.run();
    EXPECT_EQ(when, 0u);
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation sim;
    Semaphore sem(sim, 2);
    int active = 0, peak = 0, done = 0;
    auto worker = [](Semaphore &s, int &act, int &pk, int &dn) -> Task {
        co_await s.acquire();
        ++act;
        pk = std::max(pk, act);
        co_await Delay{ns(10)};
        --act;
        ++dn;
        s.release();
    };
    for (int i = 0; i < 6; ++i)
        sim.spawn(worker(sem, active, peak, done));
    sim.run();
    EXPECT_EQ(done, 6);
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(sem.available(), 2u);
}

} // namespace
