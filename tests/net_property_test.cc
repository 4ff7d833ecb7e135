/**
 * @file
 * Property tests of the fabric: random tree topologies route every
 * pair, message interleaving reassembles correctly, and bandwidth
 * sharing under contention is conserved. All-pairs delivery and
 * credit backpressure also run under every switch policy kind.
 */

#include <gtest/gtest.h>

#include <vector>

#include "PolicyMatrix.hh"
#include "net/Fabric.hh"
#include "sim/Random.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::sim;
using namespace san::net;

/** Build a random tree of switches with hosts sprinkled on leaves. */
struct RandomTree {
    Simulation s;
    Fabric fabric{s};
    std::vector<Switch *> switches;
    std::vector<Adapter *> hosts;

    explicit RandomTree(std::uint64_t seed,
                        const SwitchPolicyConfig &policy = {})
    {
        Random rng(seed);
        const unsigned n_switches =
            static_cast<unsigned>(rng.between(2, 6));
        std::vector<unsigned> free_port(n_switches, 0);
        SwitchParams params{16};
        params.policy = policy;
        for (unsigned i = 0; i < n_switches; ++i)
            switches.push_back(&fabric.addSwitch(params));
        // Random tree: switch i attaches to a random earlier switch.
        for (unsigned i = 1; i < n_switches; ++i) {
            const unsigned parent =
                static_cast<unsigned>(rng.below(i));
            fabric.connectSwitches(*switches[parent],
                                   free_port[parent]++, *switches[i],
                                   free_port[i]++);
        }
        // 1-3 hosts per switch.
        for (unsigned i = 0; i < n_switches; ++i) {
            const unsigned n_hosts =
                static_cast<unsigned>(rng.between(1, 3));
            for (unsigned hh = 0; hh < n_hosts; ++hh) {
                auto &a = fabric.addAdapter(
                    "h" + std::to_string(i) + "_" + std::to_string(hh));
                fabric.connect(*switches[i], free_port[i]++, a);
                hosts.push_back(&a);
            }
        }
        fabric.computeRoutes();
    }
};

/** Every host sends one random-sized message to every other host of
 * the seed's random tree; all of them must arrive whole. */
void
expectAllPairsDeliver(std::uint64_t seed,
                      const SwitchPolicyConfig &policy = {})
{
    RandomTree t(seed, policy);
    Random rng(seed ^ 0xf00d);
    std::uint64_t sent = 0;
    for (auto *from : t.hosts) {
        for (auto *to : t.hosts) {
            if (from == to)
                continue;
            const std::uint64_t bytes = rng.between(1, 2000);
            from->sendMessage(to->id(), bytes);
            sent += bytes;
        }
    }
    t.s.run();
    std::uint64_t received = 0;
    for (auto *h : t.hosts) {
        received += h->bytesReceived();
        // Everything that completed reassembly was delivered whole.
        EXPECT_EQ(h->messagesReceived(),
                  t.hosts.size() - 1); // one from each peer
    }
    EXPECT_EQ(received, sent);
}

class RandomTopology : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomTopology, AllPairsDeliverAllBytes)
{
    expectAllPairsDeliver(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(Fabric, InterleavedMessagesFromTwoSendersReassemble)
{
    // Packets of big messages from two sources interleave at the
    // receiver's input link; reassembly is per messageId.
    Simulation s;
    Fabric fabric(s);
    auto &sw = fabric.addSwitch(SwitchParams{8});
    auto &a = fabric.addAdapter("a");
    auto &b = fabric.addAdapter("b");
    auto &dst = fabric.addAdapter("dst");
    fabric.connect(sw, 0, a);
    fabric.connect(sw, 1, b);
    fabric.connect(sw, 2, dst);
    fabric.computeRoutes();

    a.sendMessage(dst.id(), 10000);
    b.sendMessage(dst.id(), 7000);
    std::vector<Message> got;
    s.spawn([](Adapter &rx, std::vector<Message> &out) -> Task {
        out.push_back(co_await rx.recvQueue().pop());
        out.push_back(co_await rx.recvQueue().pop());
    }(dst, got));
    s.run();
    ASSERT_EQ(got.size(), 2u);
    std::uint64_t total = got[0].bytes + got[1].bytes;
    EXPECT_EQ(total, 17000u);
    EXPECT_NE(got[0].src, got[1].src);
}

TEST(Fabric, ContendingSendersShareOneOutputLink)
{
    // Two hosts blast a third: the shared output link halves each
    // sender's throughput but loses nothing.
    Simulation s;
    Fabric fabric(s);
    auto &sw = fabric.addSwitch(SwitchParams{8});
    auto &a = fabric.addAdapter("a");
    auto &b = fabric.addAdapter("b");
    auto &dst = fabric.addAdapter("dst");
    fabric.connect(sw, 0, a);
    fabric.connect(sw, 1, b);
    fabric.connect(sw, 2, dst);
    fabric.computeRoutes();

    const std::uint64_t bytes = 512 * 1024;
    a.sendMessage(dst.id(), bytes);
    b.sendMessage(dst.id(), bytes);
    Tick both_done = 0;
    s.spawn([](Adapter &rx, Tick &end) -> Task {
        Message m1 = co_await rx.recvQueue().pop();
        Message m2 = co_await rx.recvQueue().pop();
        end = std::max(m1.completedAt, m2.completedAt);
    }(dst, both_done));
    s.run();
    EXPECT_EQ(dst.bytesReceived(), 2 * bytes);
    // Wire time for 2 x 1024 packets of 528 B at 1 GB/s.
    const double ideal = 2 * 1024 * 528 / 1e9;
    EXPECT_GE(toSeconds(both_done), ideal);
    EXPECT_LE(toSeconds(both_done), ideal * 1.1);
}

/** Tiny credit budget: everything still arrives, just slower. */
void
expectBackpressureWithoutDrops(const SwitchPolicyConfig &policy = {})
{
    Simulation s;
    LinkParams lp;
    lp.credits = 1;
    Fabric fabric(s, lp);
    SwitchParams params{4};
    params.policy = policy;
    auto &sw = fabric.addSwitch(params);
    auto &a = fabric.addAdapter("a");
    auto &b = fabric.addAdapter("b");
    fabric.connect(sw, 0, a);
    fabric.connect(sw, 1, b);
    fabric.computeRoutes();
    a.sendMessage(b.id(), 100 * 512);
    s.run();
    EXPECT_EQ(b.bytesReceived(), 100u * 512);
    EXPECT_EQ(b.messagesReceived(), 1u);
}

TEST(Fabric, CreditBackpressurePropagatesNotDrops)
{
    expectBackpressureWithoutDrops();
}

class PolicyFabric : public ::testing::TestWithParam<std::string>
{};

TEST_P(PolicyFabric, RandomTreesDeliverAllPairs)
{
    for (const std::uint64_t seed : {11, 22, 33, 44, 55}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectAllPairsDeliver(seed, test::policyOf(GetParam()));
    }
}

TEST_P(PolicyFabric, CreditBackpressurePropagatesNotDrops)
{
    expectBackpressureWithoutDrops(test::policyOf(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyFabric, test::policySpecs(),
                         test::policyName);

} // namespace
