/**
 * @file
 * Tests for channels and gates.
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

/**
 * A channel's storage starts empty and doubles as values back up;
 * values stay in push order when it grows while its oldest value sits
 * mid-ring, and across several doublings. The popper takes a waiting
 * value without suspending, so each round's pops happen at once.
 */
TEST(Channel, FifoAcrossStorageGrowth)
{
    Simulation sim;
    Channel<int> ch(sim);
    int next_in = 0;
    int next_out = 0;
    const auto popN = [](Channel<int> &c, int n, int &next) -> Task {
        for (int i = 0; i < n; ++i) {
            const int v = co_await c.pop();
            EXPECT_EQ(v, next++);
        }
    };
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 5 + 7 * round; ++i)
            ch.push(next_in++);
        sim.spawn(popN(ch, 3 + round, next_out));
        sim.run();
    }
    EXPECT_EQ(ch.size(), static_cast<std::size_t>(next_in - next_out));
    sim.spawn(popN(ch, next_in - next_out, next_out));
    sim.run();
    EXPECT_TRUE(ch.empty());
    EXPECT_EQ(next_out, next_in);
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

} // namespace
