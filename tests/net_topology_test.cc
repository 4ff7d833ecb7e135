/**
 * @file
 * Topology-builder and traffic-generator tests: fat-tree / dragonfly
 * shapes, all-pairs reachability at scale, and the five deterministic
 * traffic patterns (three fabric-wide, two on a single switch).
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/Fabric.hh"
#include "net/Topology.hh"
#include "net/Traffic.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::sim;
using namespace san::net;

TEST(Topology, FatTreeK4CountsAndAllPairsReachability)
{
    Simulation s;
    Fabric fabric(s);
    const Topology topo = buildFatTree(fabric, FatTreeParams{4});

    EXPECT_EQ(topo.hosts.size(), fatTreeHostCount(4));
    EXPECT_EQ(topo.hosts.size(), 16u);
    EXPECT_EQ(topo.switchCount(), fatTreeSwitchCount(4));
    EXPECT_EQ(topo.switchCount(), 20u);
    EXPECT_EQ(topo.edge.size(), 8u);
    EXPECT_EQ(topo.aggregation.size(), 8u);
    EXPECT_EQ(topo.core.size(), 4u);
    EXPECT_EQ(fabric.links().size(), fatTreeLinkCount(4));
    EXPECT_EQ(fabric.links().size(), 96u);
    EXPECT_EQ(topo.groups, 4u);
    ASSERT_EQ(topo.hostGroup.size(), topo.hosts.size());
    // 4 hosts per pod, in creation order.
    for (unsigned i = 0; i < topo.hosts.size(); ++i)
        EXPECT_EQ(topo.hostGroup[i], i / 4) << i;

    // Every edge switch routes to every host (15 remote + 1 local
    // per edge... all 16, plus the other 19 switches).
    for (const Switch *e : topo.edge)
        for (const Adapter *h : topo.hosts)
            EXPECT_TRUE(e->hasRoute(h->id()))
                << e->name() << " -> " << h->name();

    // All-pairs: every host sends one message to every other.
    for (auto *from : topo.hosts)
        for (auto *to : topo.hosts)
            if (from != to)
                from->sendMessage(to->id(), 100);
    s.run();
    for (auto *h : topo.hosts) {
        EXPECT_EQ(h->messagesReceived(), 15u) << h->name();
        EXPECT_EQ(h->bytesReceived(), 1500u) << h->name();
    }
}

TEST(Topology, FatTreeK8Counts)
{
    Simulation s;
    Fabric fabric(s);
    const Topology topo = buildFatTree(fabric, FatTreeParams{8});

    EXPECT_EQ(topo.hosts.size(), fatTreeHostCount(8));
    EXPECT_EQ(topo.hosts.size(), 128u);
    EXPECT_EQ(topo.switchCount(), fatTreeSwitchCount(8));
    EXPECT_EQ(topo.switchCount(), 80u);
    EXPECT_EQ(fabric.links().size(), fatTreeLinkCount(8));
    EXPECT_EQ(fabric.links().size(), 768u);

    // Uniform fabric traffic as a reachability smoke at 128 hosts:
    // every posted message lands.
    TrafficParams p;
    p.pattern = TrafficParams::Pattern::Uniform;
    p.messages = 2;
    p.messageBytes = 256;
    TrafficGen gen(s, topo.hosts, topo.hostGroup, p);
    gen.start();
    s.run();
    const TrafficReport r = gen.report();
    EXPECT_EQ(r.posted, 256u);
    EXPECT_EQ(r.delivered, 256u);
    EXPECT_EQ(r.deliveredBytes, 256u * 256u);
}

TEST(Topology, FatTreeRejectsBadArity)
{
    Simulation s;
    Fabric fabric(s);
    EXPECT_THROW(buildFatTree(fabric, FatTreeParams{3}),
                 std::invalid_argument);
    EXPECT_THROW(buildFatTree(fabric, FatTreeParams{0}),
                 std::invalid_argument);
    EXPECT_THROW(buildDragonfly(fabric, DragonflyParams{0, 2, 1}),
                 std::invalid_argument);
    EXPECT_THROW(buildDragonfly(fabric, DragonflyParams{2, 0, 1}),
                 std::invalid_argument);
    EXPECT_THROW(buildDragonfly(fabric, DragonflyParams{2, 2, 0}),
                 std::invalid_argument);
}

TEST(Topology, DragonflyCountsAndAllPairsReachability)
{
    // a=2, p=2, h=1: 3 groups of 2 routers, 12 hosts — the smallest
    // dragonfly with local and global channels both exercised.
    Simulation s;
    Fabric fabric(s);
    const DragonflyParams params{2, 2, 1};
    const Topology topo = buildDragonfly(fabric, params);

    EXPECT_EQ(dragonflyGroupCount(params), 3u);
    EXPECT_EQ(topo.groups, 3u);
    EXPECT_EQ(topo.hosts.size(), dragonflyHostCount(params));
    EXPECT_EQ(topo.hosts.size(), 12u);
    EXPECT_EQ(topo.edge.size(), dragonflySwitchCount(params));
    EXPECT_EQ(topo.edge.size(), 6u);
    EXPECT_TRUE(topo.aggregation.empty());
    EXPECT_TRUE(topo.core.empty());
    // Pairs: 12 host-router + 3 local + 3 global = 18 -> 36 links.
    EXPECT_EQ(fabric.links().size(), dragonflyLinkCount(params));
    EXPECT_EQ(fabric.links().size(), 36u);

    for (auto *from : topo.hosts)
        for (auto *to : topo.hosts)
            if (from != to)
                from->sendMessage(to->id(), 100);
    s.run();
    for (auto *h : topo.hosts) {
        EXPECT_EQ(h->messagesReceived(), 11u) << h->name();
        EXPECT_EQ(h->bytesReceived(), 1100u) << h->name();
    }
}

TEST(Topology, DragonflyBenchShapeHas144Hosts)
{
    // The bench configuration: a=4, p=4, h=2 -> 9 groups, 36
    // routers, 144 hosts (>= 128, the acceptance floor).
    const DragonflyParams params{4, 4, 2};
    EXPECT_EQ(dragonflyGroupCount(params), 9u);
    EXPECT_EQ(dragonflySwitchCount(params), 36u);
    EXPECT_EQ(dragonflyHostCount(params), 144u);
}

TEST(Traffic, UniformConservesMessagesAndAvoidsSelf)
{
    Simulation s;
    Fabric fabric(s);
    const Topology topo = buildFatTree(fabric, FatTreeParams{4});

    TrafficParams p;
    p.pattern = TrafficParams::Pattern::Uniform;
    p.messages = 6;
    p.messageBytes = 512;
    p.seed = 42;
    TrafficGen gen(s, topo.hosts, topo.hostGroup, p);
    for (unsigned h = 0; h < topo.hosts.size(); ++h)
        for (unsigned j = 0; j < p.messages; ++j) {
            const unsigned d = gen.destination(h, j);
            ASSERT_LT(d, topo.hosts.size());
            EXPECT_NE(d, h);
            // Pure function: same answer every time.
            EXPECT_EQ(gen.destination(h, j), d);
        }
    gen.start();
    s.run();
    const TrafficReport r = gen.report();
    EXPECT_EQ(r.posted, 16u * 6u);
    EXPECT_EQ(r.delivered, r.posted);
    EXPECT_EQ(r.deliveredBytes, r.posted * 512u);
    EXPECT_EQ(r.intraGroup + r.interGroup,
              r.delivered);
    EXPECT_GT(r.aggregateGBps, 0.0);
    EXPECT_GT(r.latencyMeanNs, 0.0);
}

TEST(Traffic, GroupLocalNeverLeavesThePod)
{
    Simulation s;
    Fabric fabric(s);
    const Topology topo = buildFatTree(fabric, FatTreeParams{4});

    TrafficParams p;
    p.pattern = TrafficParams::Pattern::GroupLocal;
    p.messages = 5;
    TrafficGen gen(s, topo.hosts, topo.hostGroup, p);
    for (unsigned h = 0; h < topo.hosts.size(); ++h)
        for (unsigned j = 0; j < p.messages; ++j) {
            const unsigned d = gen.destination(h, j);
            EXPECT_NE(d, h);
            EXPECT_EQ(topo.hostGroup[d], topo.hostGroup[h]);
        }
    gen.start();
    s.run();
    const TrafficReport r = gen.report();
    EXPECT_EQ(r.delivered, 16u * 5u);
    EXPECT_EQ(r.interGroup, 0u);
    EXPECT_EQ(r.intraGroup, r.delivered);
}

TEST(Traffic, PermutationAlwaysCrossesGroups)
{
    Simulation s;
    Fabric fabric(s);
    const DragonflyParams params{2, 2, 1};
    const Topology topo = buildDragonfly(fabric, params);

    TrafficParams p;
    p.pattern = TrafficParams::Pattern::Permutation;
    p.messages = 4;
    p.seed = 7;
    TrafficGen gen(s, topo.hosts, topo.hostGroup, p);
    // A fixed permutation: destination ignores the round, never maps
    // two senders to one target, and always leaves the group.
    std::set<unsigned> targets;
    for (unsigned h = 0; h < topo.hosts.size(); ++h) {
        const unsigned d = gen.destination(h, 0);
        EXPECT_EQ(gen.destination(h, 3), d);
        EXPECT_NE(topo.hostGroup[d], topo.hostGroup[h]);
        targets.insert(d);
    }
    EXPECT_EQ(targets.size(), topo.hosts.size());
    gen.start();
    s.run();
    const TrafficReport r = gen.report();
    EXPECT_EQ(r.delivered, 12u * 4u);
    EXPECT_EQ(r.intraGroup, 0u);
    EXPECT_EQ(r.interGroup, r.delivered);
}

/** The policy lab's shape: 8 hosts on one 8-port switch. */
struct SingleSwitch {
    Simulation sim;
    Fabric fabric{sim};
    std::vector<Adapter *> hosts;

    SingleSwitch()
    {
        Switch &sw = fabric.addSwitch(SwitchParams{8});
        for (unsigned h = 0; h < 8; ++h) {
            Adapter &a = fabric.addAdapter("h" + std::to_string(h));
            fabric.connect(sw, h, a);
            hosts.push_back(&a);
        }
        fabric.computeRoutes();
    }
};

TEST(Traffic, EveryPatternIsPureAndConservesOnOneSwitch)
{
    using P = TrafficParams::Pattern;
    for (const P pattern : {P::Uniform, P::Permutation, P::GroupLocal,
                            P::Incast, P::PermutationHotspot}) {
        SingleSwitch net;
        TrafficParams p;
        p.pattern = pattern;
        p.messages = 9;
        p.hotMessages = 3;
        p.messageBytes = 1000;
        TrafficGen gen(net.sim, net.hosts, {}, p);
        const TrafficGen twin(net.sim, net.hosts, {}, p);

        std::vector<unsigned> before;
        for (unsigned h = 0; h < 8; ++h)
            for (unsigned j = 0; j < gen.messagesFrom(h); ++j) {
                const unsigned d = gen.destination(h, j);
                ASSERT_LT(d, 8u);
                EXPECT_NE(d, h);
                EXPECT_EQ(twin.destination(h, j), d);
                before.push_back(d);
            }
        gen.start();
        net.sim.run();

        // Running changed no answer: destination() keeps no state.
        std::vector<unsigned> after;
        for (unsigned h = 0; h < 8; ++h)
            for (unsigned j = 0; j < gen.messagesFrom(h); ++j)
                after.push_back(gen.destination(h, j));
        EXPECT_EQ(after, before);

        const TrafficReport r = gen.report();
        EXPECT_EQ(r.posted, before.size());
        EXPECT_EQ(r.delivered, r.posted);
        EXPECT_EQ(r.deliveredBytes, r.posted * 1000u);
        EXPECT_EQ(r.intraGroup, r.delivered); // one group
    }
}

TEST(Traffic, HotspotPatternsNeverPostFromHostZero)
{
    using P = TrafficParams::Pattern;
    for (const P pattern : {P::Incast, P::PermutationHotspot}) {
        SingleSwitch net;
        TrafficParams p;
        p.pattern = pattern;
        p.messages = 6;
        p.hotMessages = 2;
        TrafficGen gen(net.sim, net.hosts, {}, p);
        EXPECT_EQ(gen.messagesFrom(0), 0u);
        for (unsigned h = 1; h < 8; ++h)
            EXPECT_EQ(gen.messagesFrom(h), 6u);
        gen.start();
        net.sim.run();
        EXPECT_EQ(net.hosts[0]->messagesSent(), 0u);
        EXPECT_EQ(gen.report().posted, 7u * 6u);
    }
}

TEST(Traffic, PermutationHotspotSplitsEachSenderRingAndHot)
{
    SingleSwitch net;
    TrafficParams p;
    p.pattern = TrafficParams::Pattern::PermutationHotspot;
    p.messages = 72;
    p.hotMessages = 24;
    p.messageBytes = 4096;
    TrafficGen gen(net.sim, net.hosts, {}, p);
    for (unsigned h = 1; h < 8; ++h) {
        const unsigned successor = h % 7 + 1;
        unsigned hot = 0, ring = 0;
        for (unsigned j = 0; j < 72; ++j) {
            const unsigned d = gen.destination(h, j);
            hot += d == 0;
            ring += d == successor;
        }
        EXPECT_EQ(hot, 24u) << "sender " << h;
        EXPECT_EQ(ring, 48u) << "sender " << h;
    }
    gen.start();
    net.sim.run();

    const TrafficReport r = gen.report();
    EXPECT_EQ(r.posted, 7u * 72u);
    EXPECT_EQ(r.delivered, r.posted);
    EXPECT_EQ(r.deliveredBytes, 7u * 72u * 4096u);
    // The measured class is the ring traffic.
    EXPECT_EQ(r.measuredBytes, 7u * 48u * 4096u);
    EXPECT_EQ(net.hosts[0]->messagesReceived(), 7u * 24u);
    for (unsigned h = 1; h < 8; ++h)
        EXPECT_EQ(net.hosts[h]->messagesReceived(), 48u) << h;
}

} // namespace
