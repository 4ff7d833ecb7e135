/**
 * @file
 * Host node edge cases: completion tracking, concurrent requests,
 * interleaved replies from multiple storage nodes, message ordering.
 */

#include <gtest/gtest.h>

#include <vector>

#include "host/Host.hh"
#include "io/StorageNode.hh"
#include "net/Fabric.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::sim;

struct TwoDiskFixture {
    Simulation s;
    net::Fabric fabric{s};
    net::Switch *sw;
    host::Host *h;
    std::vector<io::StorageNode *> storage;

    TwoDiskFixture()
    {
        sw = &fabric.addSwitch(net::SwitchParams{8});
        h = new host::Host(s, "host0", fabric);
        fabric.connect(*sw, 0, h->hca());
        for (int i = 0; i < 2; ++i) {
            auto &tca =
                fabric.addAdapter("tca" + std::to_string(i));
            storage.push_back(new io::StorageNode(s, tca));
            fabric.connect(*sw, 1 + static_cast<unsigned>(i), tca);
        }
        fabric.computeRoutes();
        h->start();
        for (auto *st : storage)
            st->start();
    }

    ~TwoDiskFixture()
    {
        for (auto *st : storage)
            delete st;
        delete h;
    }
};

TEST(HostIo, ConcurrentRequestsToTwoStorageNodesComplete)
{
    TwoDiskFixture f;
    std::vector<host::IoCompletion> done;
    f.s.spawn([](host::Host &h, net::NodeId s0, net::NodeId s1,
                 std::vector<host::IoCompletion> &out) -> Task {
        auto a = co_await h.postRead(s0, 0, 128 * 1024);
        auto b = co_await h.postRead(s1, 0, 128 * 1024);
        out.push_back(co_await h.awaitIo(a));
        out.push_back(co_await h.awaitIo(b));
    }(*f.h, f.storage[0]->id(), f.storage[1]->id(), done));
    const Tick end = f.s.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].bytes, 128u * 1024);
    EXPECT_EQ(done[1].bytes, 128u * 1024);
    // Two independent 100 MB/s arrays run in parallel: the pair
    // completes in roughly the time of one (plus ~the shared-link
    // serialization), far under 2x.
    EXPECT_LT(toSeconds(end), 2 * (128.0 * 1024 / 100e6));
}

TEST(HostIo, AwaitIoAfterCompletionReturnsImmediately)
{
    TwoDiskFixture f;
    Tick awaited_at = 0, completed_at = 0;
    f.s.spawn([](host::Host &h, net::NodeId st, Tick &aw, Tick &cp)
                  -> Task {
        auto id = co_await h.postRead(st, 0, 4096);
        co_await Delay{ms(50)}; // data long arrived
        const Tick before = h.cpu().now();
        auto done = co_await h.awaitIo(id);
        aw = h.cpu().now() - before;
        cp = done.completedAt;
    }(*f.h, f.storage[0]->id(), awaited_at, completed_at));
    f.s.run();
    EXPECT_EQ(awaited_at, 0u); // no extra wait
    EXPECT_GT(completed_at, 0u);
    EXPECT_LT(completed_at, ms(50));
}

TEST(HostIo, CompletionTimesOrderedWithinOneArray)
{
    TwoDiskFixture f;
    std::vector<Tick> completions;
    f.s.spawn([](host::Host &h, net::NodeId st,
                 std::vector<Tick> &out) -> Task {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 4; ++i)
            ids.push_back(
                co_await h.postRead(st, i * 65536ull, 65536));
        for (auto id : ids)
            out.push_back((co_await h.awaitIo(id)).completedAt);
    }(*f.h, f.storage[0]->id(), completions));
    f.s.run();
    ASSERT_EQ(completions.size(), 4u);
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_LT(completions[i - 1], completions[i]);
}

TEST(HostIo, AppMessagesNotSwallowedByIoTraffic)
{
    // While a read streams in, an app message must still reach the
    // app queue (the demux sorts by tag).
    TwoDiskFixture f;
    host::Host peer(f.s, "peer", f.fabric);
    f.fabric.connect(*f.sw, 3, peer.hca());
    f.fabric.computeRoutes();
    peer.start();

    bool got_app = false;
    f.s.spawn([](host::Host &h, net::NodeId st, bool &flag) -> Task {
        auto id = co_await h.postRead(st, 0, 256 * 1024);
        net::Message m = co_await h.recv(); // app message, mid-stream
        flag = (m.tag == host::tagApp && m.bytes == 99);
        co_await h.awaitIo(id);
    }(*f.h, f.storage[0]->id(), got_app));
    f.s.spawn([](host::Host &p, net::NodeId dst) -> Task {
        co_await Delay{us(300)}; // while the read is streaming
        co_await p.send(dst, 99);
    }(peer, f.h->id()));
    f.s.run();
    EXPECT_TRUE(got_app);
}

TEST(HostIo, ReadBlockingChargesOsCostOnceForWholeRequest)
{
    TwoDiskFixture f;
    f.s.spawn([](host::Host &h, net::NodeId st) -> Task {
        const std::uint64_t id = co_await h.postRead(st, 0, 128 * 1024);
        co_await h.awaitIo(id);
    }(*f.h, f.storage[0]->id()));
    f.s.run();
    // 30 us + 128 * 0.27 us — a single request, regardless of the
    // 256 chunks it took on the wire.
    EXPECT_EQ(f.h->cpu().busyTicks(), us(30) + 128 * ns(270));
}

} // namespace
