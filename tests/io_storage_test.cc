/**
 * @file
 * Tests for disks, the SCSI bus, the storage node, and the host I/O
 * path end to end.
 */

#include <gtest/gtest.h>

#include <vector>

#include "host/Host.hh"
#include "io/Disk.hh"
#include "io/ScsiBus.hh"
#include "io/StorageNode.hh"
#include "net/Fabric.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::sim;

TEST(Disk, SequentialReadsSkipSeek)
{
    io::Disk d;
    Tick t1 = d.read(0, 4096, 0);
    Tick t2 = d.read(4096, 4096, t1);
    EXPECT_EQ(d.seeks(), 0u); // heads start at the volume start
    // Second read is pure transfer: 4096 B at 50 MB/s.
    EXPECT_EQ(t2 - t1, transferTime(4096, bytesPerSec(50e6)));
}

TEST(Disk, RandomAccessPaysSeekAndRotation)
{
    io::DiskParams p;
    io::Disk d(p);
    Tick t1 = d.read(0, 512, 0);
    Tick t2 = d.read(100 * MiB, 512, t1);
    EXPECT_EQ(d.seeks(), 1u);
    EXPECT_GE(t2 - t1, p.seekTime + p.rotationalLatency());
}

TEST(Disk, RotationalLatencyFromRpm)
{
    io::DiskParams p;
    p.rotationRpm = 10000;
    // Half a revolution at 10k RPM = 3 ms.
    EXPECT_EQ(p.rotationalLatency(), ms(3));
}

TEST(DiskArray, AggregateBandwidthScalesWithSpindles)
{
    // 2 x 50 MB/s striped: 10 MB of 512 B chunks should take ~0.1 s.
    io::DiskArray arr(2);
    Tick done = 0;
    const std::uint64_t total = 10 * MiB;
    for (std::uint64_t off = 0; off < total; off += 512)
        done = std::max(done, arr.readChunk(off, 512, 0));
    const double seconds = toSeconds(done);
    EXPECT_NEAR(seconds, total / 100e6, total / 100e6 * 0.1);
    EXPECT_EQ(arr.bytesRead(), total);
}

TEST(ScsiBus, TransactionOverheadAndBandwidth)
{
    io::ScsiBus bus;
    Tick t1 = bus.transfer(32 * 1024, 0, true);
    EXPECT_EQ(t1, us(1) + transferTime(32 * 1024, bytesPerSec(320e6)));
    // Continuation of the same transaction: no arbitration.
    Tick t2 = bus.transfer(32 * 1024, t1, false);
    EXPECT_EQ(t2 - t1, transferTime(32 * 1024, bytesPerSec(320e6)));
    EXPECT_EQ(bus.transactions(), 1u);
}

TEST(ScsiBus, SharedBusSerializesUsers)
{
    io::ScsiBus bus;
    Tick a = bus.transfer(1024, 0, true);
    Tick b = bus.transfer(1024, 0, true); // contends with a
    EXPECT_GE(b, a);
}

/** Full path: host -> switch -> storage -> back. */
struct IoFixture {
    Simulation s;
    net::Fabric fabric{s};
    net::Switch *sw;
    host::Host *h;
    net::Adapter *tca;
    io::StorageNode *storage;

    IoFixture()
    {
        sw = &fabric.addSwitch(net::SwitchParams{8});
        h = new host::Host(s, "host0", fabric);
        tca = &fabric.addAdapter("tca0");
        storage = new io::StorageNode(s, *tca);
        fabric.connect(*sw, 0, h->hca());
        fabric.connect(*sw, 1, *tca);
        fabric.computeRoutes();
        h->start();
        storage->start();
    }

    ~IoFixture()
    {
        delete storage;
        delete h;
    }
};

TEST(StorageNode, BlockingReadDeliversAllBytes)
{
    IoFixture f;
    host::IoCompletion done{};
    f.s.spawn([](host::Host &h, net::NodeId storage,
                 host::IoCompletion &out) -> Task {
        const std::uint64_t id = co_await h.postRead(storage, 0, 64 * 1024);
        out = co_await h.awaitIo(id);
    }(*f.h, f.storage->id(), done));
    f.s.run();
    EXPECT_EQ(done.bytes, 64u * 1024);
    EXPECT_GT(done.completedAt, 0u);
    EXPECT_EQ(f.h->hca().bytesReceived(), 64u * 1024);
    EXPECT_EQ(f.storage->requestsServed(), 1u);
}

TEST(StorageNode, ReadTimeBoundedByDiskBandwidth)
{
    IoFixture f;
    host::IoCompletion done{};
    const std::uint64_t bytes = 1 * MiB;
    f.s.spawn([](host::Host &h, net::NodeId storage, std::uint64_t n,
                 host::IoCompletion &out) -> Task {
        const std::uint64_t id = co_await h.postRead(storage, 0, n);
        out = co_await h.awaitIo(id);
    }(*f.h, f.storage->id(), bytes, done));
    f.s.run();
    // 1 MB at 100 MB/s aggregate = ~10.5 ms (plus initial seek).
    const double seconds = toSeconds(done.completedAt);
    EXPECT_GE(seconds, bytes / 100e6);
    EXPECT_LE(seconds, bytes / 100e6 + 0.015);
}

TEST(StorageNode, OsCostChargedToHostCpu)
{
    IoFixture f;
    f.s.spawn([](host::Host &h, net::NodeId storage) -> Task {
        const std::uint64_t id = co_await h.postRead(storage, 0, 64 * 1024);
        co_await h.awaitIo(id);
    }(*f.h, f.storage->id()));
    f.s.run();
    // 30 us + 64 KB * 0.27 us/KB = 47.28 us.
    EXPECT_EQ(f.h->cpu().busyTicks(),
              us(30) + 64 * ns(270));
}

TEST(StorageNode, ActivePostIsCheapAndBypassesHost)
{
    IoFixture f;
    // Direct the reply at the switch: the host should receive no
    // data and pay only the QP post.
    f.s.spawn([](host::Host &h, net::NodeId storage,
                 net::NodeId sw_node) -> Task {
        net::ActiveHeader hdr{1, 0x1000, 0};
        co_await h.postReadTo(storage, 0, 8192, sw_node, hdr);
    }(*f.h, f.storage->id(), f.sw->id()));
    f.s.run();
    EXPECT_EQ(f.h->hca().bytesReceived(), 0u);
    EXPECT_EQ(f.h->cpu().busyTicks(), us(2));
    // The base switch dropped the active chunks locally.
    EXPECT_EQ(f.sw->packetsLocal(), 8192u / 512);
}

TEST(StorageNode, TwoOutstandingRequestsOverlap)
{
    // "+pref" pattern: two posts in flight; total time is less than
    // two sequential blocking reads.
    IoFixture seq, pre;
    const std::uint64_t block = 256 * 1024;

    Tick seq_done = 0;
    seq.s.spawn([](host::Host &h, net::NodeId storage, std::uint64_t b,
                   Tick &out) -> Task {
        co_await h.awaitIo(co_await h.postRead(storage, 0, b));
        co_await h.awaitIo(co_await h.postRead(storage, b, b));
        out = h.cpu().busyTicks(); // placate unused warnings
        out = 0;
    }(*seq.h, seq.storage->id(), block, seq_done));
    seq_done = seq.s.run();

    Tick pre_done = 0;
    pre.s.spawn([](host::Host &h, net::NodeId storage, std::uint64_t b,
                   Tick &out) -> Task {
        auto r0 = co_await h.postRead(storage, 0, b);
        auto r1 = co_await h.postRead(storage, b, b);
        co_await h.awaitIo(r0);
        co_await h.awaitIo(r1);
        out = 0;
    }(*pre.h, pre.storage->id(), block, pre_done));
    pre_done = pre.s.run();

    EXPECT_LT(pre_done, seq_done);
}

TEST(StorageNode, DeviceFilterThinsTheStream)
{
    // Active-disk extension: a device filter keeps half of each
    // chunk; the host receives half the bytes but completion (via
    // the last flag) still fires.
    IoFixture f;
    f.storage->setDeviceFilter(io::DeviceFilter{
        [](std::uint64_t, std::uint32_t bytes) {
            return std::pair<std::uint32_t, std::uint64_t>(bytes / 2,
                                                           50);
        },
        200'000'000});
    host::IoCompletion done{};
    f.s.spawn([](host::Host &h, net::NodeId storage,
                 host::IoCompletion &out) -> Task {
        const std::uint64_t id = co_await h.postRead(storage, 0, 64 * 1024);
        out = co_await h.awaitIo(id);
    }(*f.h, f.storage->id(), done));
    f.s.run();
    EXPECT_EQ(done.bytes, 32u * 1024);
    EXPECT_EQ(f.h->hca().bytesReceived(), 32u * 1024);
    EXPECT_EQ(f.storage->bytesFilteredAtDevice(), 32u * 1024);
    // 128 chunks x 50 instructions at 200 MHz = 5 ns each.
    EXPECT_EQ(f.storage->deviceBusyTicks(), 128 * 50 * ns(5));
}

TEST(StorageNode, DeviceFilterKeepsConcurrentRequestsOrdered)
{
    // Regression test: device occupancy must be reserved in the
    // globally-ordered planning pass, or chunks of concurrent
    // requests can be delivered out of order.
    IoFixture f;
    f.storage->setDeviceFilter(io::DeviceFilter{
        [](std::uint64_t, std::uint32_t bytes) {
            return std::pair<std::uint32_t, std::uint64_t>(bytes, 500);
        },
        200'000'000});
    std::vector<std::uint64_t> order;
    f.s.spawn([](host::Host &h, net::NodeId storage,
                 std::vector<std::uint64_t> &out) -> Task {
        auto a = co_await h.postRead(storage, 0, 16 * 1024);
        auto b = co_await h.postRead(storage, 16 * 1024, 16 * 1024);
        auto da = co_await h.awaitIo(a);
        auto db = co_await h.awaitIo(b);
        out.push_back(da.completedAt);
        out.push_back(db.completedAt);
    }(*f.h, f.storage->id(), order));
    f.s.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_LT(order[0], order[1]); // request A completes before B
}

TEST(Host, AppMessagesFlowThroughAppQueue)
{
    Simulation s;
    net::Fabric fabric(s);
    auto &sw = fabric.addSwitch(net::SwitchParams{8});
    host::Host a(s, "a", fabric), b(s, "b", fabric);
    fabric.connect(sw, 0, a.hca());
    fabric.connect(sw, 1, b.hca());
    fabric.computeRoutes();
    a.start();
    b.start();

    bool got = false;
    s.spawn([](host::Host &h, net::NodeId dst) -> Task {
        co_await h.send(dst, 256);
    }(a, b.id()));
    s.spawn([](host::Host &h, bool &flag) -> Task {
        net::Message m = co_await h.recv();
        flag = (m.bytes == 256);
    }(b, got));
    s.run();
    EXPECT_TRUE(got);
}

TEST(Host, AllocBufferReturnsFreshPageAlignedRegions)
{
    Simulation s;
    net::Fabric fabric(s);
    host::Host h(s, "h", fabric);
    auto a = h.allocBuffer(100);
    auto b = h.allocBuffer(100);
    EXPECT_NE(a, b);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 100);
}

} // namespace
