/**
 * @file
 * Tests for the shared streaming machinery: the normal and active
 * host loops and the generic filter handler.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/Cluster.hh"
#include "apps/StreamCommon.hh"

namespace {

using namespace san;
using namespace san::apps;

TEST(NormalHostLoop, SyncSerializesIoAndCompute)
{
    // With one outstanding request, total time ~= io + compute; with
    // two, ~= max(io, compute). The compute here is sized ~equal to
    // the I/O time so the contrast is sharp.
    auto run = [](unsigned outstanding) {
        Cluster cluster;
        const std::uint64_t bytes = 1 * sim::MiB;
        cluster.sim().spawn(normalHostLoop(
            cluster.host(), cluster.storage().id(), bytes, 64 * 1024,
            outstanding,
            [](host::Host &h, mem::Addr, std::uint64_t n,
               std::uint64_t) -> sim::Task {
                // ~10 ms of compute per MB at 2 GHz.
                co_await h.cpu().compute(n * 20);
            }));
        return cluster.sim().run();
    };
    const sim::Tick sync = run(1);
    const sim::Tick pref = run(2);
    EXPECT_GT(sync, pref);
    // Sync ~ io + compute ~ 2x pref when balanced.
    EXPECT_GT(static_cast<double>(sync) / pref, 1.5);
}

TEST(NormalHostLoop, DeliversEveryBlockOnce)
{
    Cluster cluster;
    std::vector<std::uint64_t> sizes, offsets;
    const std::uint64_t bytes = 200 * 1024; // not a block multiple
    cluster.sim().spawn(normalHostLoop(
        cluster.host(), cluster.storage().id(), bytes, 64 * 1024, 2,
        [&sizes, &offsets](host::Host &, mem::Addr, std::uint64_t n,
                           std::uint64_t offset) -> sim::Task {
            sizes.push_back(n);
            offsets.push_back(offset);
            co_return;
        }));
    cluster.sim().run();
    ASSERT_EQ(sizes.size(), 4u);
    EXPECT_EQ(sizes[0], 64u * 1024);
    EXPECT_EQ(sizes[3], 200u * 1024 - 3 * 64 * 1024);
    // Blocks arrive in file order, each at its own offset.
    EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 64 * 1024,
                                                   128 * 1024,
                                                   192 * 1024}));
}

TEST(FilterHandler, RepliesOncePerBlockWithFilteredSize)
{
    Cluster cluster;
    auto &sw = cluster.sw();
    const std::uint64_t file = 4 * 1024;
    const std::uint64_t block = 1024;

    FilterHandler spec;
    spec.fileBytes = file;
    spec.blockBytes = block;
    spec.processChunk = [](active::HandlerContext &ctx,
                           const active::StreamChunk &chunk)
        -> sim::ValueTask<std::uint32_t> {
        co_await ctx.awaitValid(chunk, 0, chunk.bytes);
        co_return chunk.bytes / 2; // keep half of everything
    };
    sw.registerHandler(1, "half", [spec](active::HandlerContext &c) {
        return runFilterHandler(c, spec);
    });

    std::vector<std::uint64_t> reply_sizes;
    ActiveLoop loop;
    loop.storage = cluster.storage().id();
    loop.switchNode = sw.id();
    loop.handlerId = 1;
    loop.fileBytes = file;
    loop.blockBytes = block;
    loop.outstanding = 2;
    cluster.sim().spawn(activeHostLoop(
        cluster.host(), loop,
        [&reply_sizes](host::Host &,
                       const net::Message &reply) -> sim::Task {
            reply_sizes.push_back(reply.bytes);
            co_return;
        }));
    cluster.sim().run();
    ASSERT_EQ(reply_sizes.size(), file / block);
    for (auto s : reply_sizes)
        EXPECT_EQ(s, block / 2);
}

TEST(FilterHandler, ZeroByteRepliesStillPaceTheLoop)
{
    // A filter that drops everything must still ack each block or
    // the host loop would deadlock.
    Cluster cluster;
    auto &sw = cluster.sw();
    FilterHandler spec;
    spec.fileBytes = 8 * 512;
    spec.blockBytes = 2 * 512;
    spec.processChunk = [](active::HandlerContext &ctx,
                           const active::StreamChunk &chunk)
        -> sim::ValueTask<std::uint32_t> {
        co_await ctx.awaitValid(chunk, 0, chunk.bytes);
        co_return 0;
    };
    sw.registerHandler(1, "drop", [spec](active::HandlerContext &c) {
        return runFilterHandler(c, spec);
    });

    int replies = 0;
    ActiveLoop loop;
    loop.storage = cluster.storage().id();
    loop.switchNode = sw.id();
    loop.handlerId = 1;
    loop.fileBytes = spec.fileBytes;
    loop.blockBytes = spec.blockBytes;
    loop.outstanding = 1;
    cluster.sim().spawn(activeHostLoop(
        cluster.host(), loop,
        [&replies](host::Host &, const net::Message &m) -> sim::Task {
            EXPECT_EQ(m.bytes, 0u);
            ++replies;
            co_return;
        }));
    cluster.sim().run();
    EXPECT_EQ(replies, 4);
    // All data buffers returned.
    EXPECT_EQ(sw.buffers().freeCount(), 16u);
}

TEST(ActiveHostLoop, OutstandingLimitsInflightBlocks)
{
    // With outstanding = 1, the storage node never sees request k+1
    // before the handler acked block k: requests are spread out in
    // time. With 2 the stream is denser. Compare completion times.
    auto run = [](unsigned outstanding) {
        Cluster cluster;
        auto &sw = cluster.sw();
        FilterHandler spec;
        spec.fileBytes = 64 * 1024;
        spec.blockBytes = 8 * 1024;
        spec.processChunk = [](active::HandlerContext &ctx,
                               const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_await ctx.compute(2000); // 4 us per 512 B chunk
            co_return 0;
        };
        sw.registerHandler(1, "work", [spec](active::HandlerContext &c) {
            return runFilterHandler(c, spec);
        });
        ActiveLoop loop;
        loop.storage = cluster.storage().id();
        loop.switchNode = sw.id();
        loop.handlerId = 1;
        loop.fileBytes = spec.fileBytes;
        loop.blockBytes = spec.blockBytes;
        loop.outstanding = outstanding;
        cluster.sim().spawn(activeHostLoop(
            cluster.host(), loop,
            [](host::Host &, const net::Message &) -> sim::Task {
                co_return;
            }));
        return cluster.sim().run();
    };
    EXPECT_GT(run(1), run(2));
}

} // namespace
