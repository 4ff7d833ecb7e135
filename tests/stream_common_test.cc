/**
 * @file
 * Tests for the shared streaming machinery: the normal and active
 * host loops, the generic filter handler, and placeStreams, which
 * places a stream's work for a mode.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/Cluster.hh"
#include "apps/HashJoin.hh"
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
            cluster.host(),
            {.storage = cluster.storage().id(),
             .bytes = bytes,
             .blockBytes = 64 * 1024},
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
        cluster.host(),
        {.storage = cluster.storage().id(),
         .bytes = bytes,
         .blockBytes = 64 * 1024},
        2,
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
    const std::uint64_t file = 4 * 1024;
    const std::uint64_t block = 1024;

    std::vector<std::uint64_t> reply_sizes;
    Stream half{
        .file = {.storage = cluster.storage().id(),
                 .bytes = file,
                 .blockBytes = block},
        .name = "half",
        .onChunk = [](active::HandlerContext &ctx,
                      const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_return chunk.bytes / 2; // keep half of everything
        },
        .onReply = [&reply_sizes](host::Host &,
                                  const net::Message &reply) -> sim::Task {
            reply_sizes.push_back(reply.bytes);
            co_return;
        },
    };
    cluster.spawnOnHost(0, placeStreams(cluster, Mode::ActivePref, {half}));
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
    int replies = 0;
    Stream drop{
        .file = {.storage = cluster.storage().id(),
                 .bytes = 8 * 512,
                 .blockBytes = 2 * 512},
        .name = "drop",
        .onChunk = [](active::HandlerContext &ctx,
                      const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_return 0;
        },
        .onReply = [&replies](host::Host &,
                              const net::Message &m) -> sim::Task {
            EXPECT_EQ(m.bytes, 0u);
            ++replies;
            co_return;
        },
    };
    cluster.spawnOnHost(0, placeStreams(cluster, Mode::Active, {drop}));
    cluster.sim().run();
    EXPECT_EQ(replies, 4);
    // All data buffers returned.
    EXPECT_EQ(cluster.sw().buffers().freeCount(), 16u);
}

TEST(ActiveHostLoop, OutstandingLimitsInflightBlocks)
{
    // With outstanding = 1, the storage node never sees request k+1
    // before the handler acked block k: requests are spread out in
    // time. With 2 the stream is denser. Compare completion times.
    auto run = [](unsigned outstanding) {
        Cluster cluster;
        auto &sw = cluster.sw();
        Stream work{
            .file = {.storage = cluster.storage().id(),
                     .bytes = 64 * 1024,
                     .blockBytes = 8 * 1024},
            .name = "work",
            .onChunk = [](active::HandlerContext &ctx,
                          const active::StreamChunk &chunk)
                -> sim::ValueTask<std::uint32_t> {
                co_await ctx.awaitValid(chunk, 0, chunk.bytes);
                co_await ctx.compute(2000); // 4 us per 512 B chunk
                co_return 0;
            },
            .onReply = [](host::Host &,
                          const net::Message &) -> sim::Task {
                co_return;
            },
        };
        sw.registerHandler(1, "work",
                           [work](active::HandlerContext &c) {
                               return runFilterHandler(c, work);
                           });
        cluster.sim().spawn(
            activeHostLoop(cluster.host(), work, sw.id(), outstanding));
        return cluster.sim().run();
    };
    EXPECT_GT(run(1), run(2));
}

TEST(PlaceStreams, RegistersHandlersOnlyInActiveModes)
{
    // HashJoin places two streams: R under handler 1, S under 2.
    std::map<std::uint8_t, std::string> registered;
    clusterObserver() = [&registered](Cluster &c, Mode) {
        registered.clear();
        for (const auto &[id, profile] : c.sw().handlerProfiles())
            registered[id] = profile.name;
    };
    HashJoinParams p;
    p.rBytes = 64 * 1024;
    p.sBytes = 128 * 1024;
    const std::map<std::uint8_t, std::string> join_handlers{
        {1, "hj-build"}, {2, "hj-filter"}};
    for (Mode m : allModes) {
        runHashJoin(m, p);
        if (isActive(m))
            EXPECT_EQ(registered, join_handlers) << modeName(m);
        else
            EXPECT_TRUE(registered.empty()) << modeName(m);
    }
    clusterObserver() = nullptr;
}

} // namespace
