#include "apps/StreamCommon.hh"

#include <cassert>
#include <deque>
#include <optional>

namespace san::apps {

namespace {

/** Host 0's side of placeStreams: each stream in turn, placed as
 * @p mode says. */
sim::Task
readStreams(host::Host &host, net::NodeId switch_node, Mode mode,
            std::vector<Stream> streams)
{
    const unsigned outstanding = outstandingRequests(mode);
    for (Stream &s : streams) {
        if (isActive(mode))
            co_await activeHostLoop(host, std::move(s), switch_node,
                                    outstanding);
        else
            co_await normalHostLoop(host, s.file, outstanding,
                                    std::move(s.onBlock));
    }
}

} // namespace

sim::Task
placeStreams(Cluster &cluster, Mode mode, std::vector<Stream> streams)
{
    if (isActive(mode))
        for (const Stream &s : streams)
            cluster.sw().registerHandler(
                s.handlerId, s.name, [s](active::HandlerContext &c) {
                    return runFilterHandler(c, s);
                });
    return readStreams(cluster.host(), cluster.sw().id(), mode,
                       std::move(streams));
}

sim::Task
normalHostLoop(host::Host &host, StreamFile file, unsigned outstanding,
               BlockFn on_block)
{
    assert(outstanding >= 1);
    struct Posted {
        std::uint64_t id;
        std::uint64_t offset;
        std::uint64_t bytes;
    };
    std::deque<Posted> inflight;
    std::uint64_t posted = 0;

    auto post_next = [&]() -> sim::Task {
        const std::uint64_t n =
            std::min<std::uint64_t>(file.blockBytes, file.bytes - posted);
        const std::uint64_t id = co_await host.postRead(
            file.storage, file.diskOffset + posted, n);
        inflight.push_back({id, posted, n});
        posted += n;
    };

    while (posted < file.bytes &&
           inflight.size() < static_cast<std::size_t>(outstanding))
        co_await post_next();

    while (!inflight.empty()) {
        const Posted blk = inflight.front();
        inflight.pop_front();
        co_await host.awaitIo(blk.id);
        // With prefetching the pipeline is refilled before burning
        // CPU on this block, overlapping compute with I/O. The
        // synchronous case posts only after processing: the disk
        // sits idle while the host computes, and vice versa.
        if (outstanding > 1 && posted < file.bytes)
            co_await post_next();
        // Fresh DMA landing zone: first touch is a cold miss.
        const mem::Addr buf = host.allocBuffer(blk.bytes);
        co_await on_block(host, buf, blk.bytes, blk.offset);
        if (outstanding == 1 && posted < file.bytes)
            co_await post_next();
    }
}

sim::Task
activeHostLoop(host::Host &host, Stream stream, net::NodeId switch_node,
               unsigned outstanding)
{
    assert(outstanding >= 1);
    const StreamFile &file = stream.file;
    co_await host.send(switch_node, 64,
                       net::ActiveHeader{stream.handlerId, 0, 0},
                       nullptr, tagArgs);

    const std::uint64_t blocks =
        (file.bytes + file.blockBytes - 1) / file.blockBytes;
    std::uint64_t posted_blocks = 0;

    auto post_next = [&]() -> sim::Task {
        const std::uint64_t off = posted_blocks * file.blockBytes;
        const std::uint64_t n =
            std::min<std::uint64_t>(file.blockBytes, file.bytes - off);
        net::ActiveHeader hdr{stream.handlerId,
                              static_cast<std::uint32_t>(off), 0};
        co_await host.postReadTo(file.storage, file.diskOffset + off, n,
                                 switch_node, hdr);
        ++posted_blocks;
    };

    while (posted_blocks < blocks &&
           posted_blocks < static_cast<std::uint64_t>(outstanding))
        co_await post_next();

    for (std::uint64_t done = 0; done < blocks; ++done) {
        net::Message reply = co_await host.recv();
        assert(reply.tag == tagResult);
        if (posted_blocks < blocks)
            co_await post_next();
        co_await stream.onReply(host, reply);
    }
}

sim::Task
runFilterHandler(active::HandlerContext &ctx, Stream stream)
{
    // ReadArg: the invoking message carries the arguments.
    active::StreamChunk arg = co_await ctx.nextChunk();
    assert(arg.tag == tagArgs);
    const net::NodeId reply_to = arg.src;
    co_await ctx.awaitValid(arg, 0, arg.bytes);
    co_await ctx.fetchCode(0x1000, stream.codeBytes);
    co_await ctx.compute(stream.setupInstructions);
    ctx.deallocateThrough(arg.address + ctx.owner().buffers()
                                            .params().bytes);

    const StreamFile &file = stream.file;
    std::uint64_t consumed = 0;
    std::uint64_t block_consumed = 0;
    std::uint64_t block_forward = 0;

    while (consumed < file.bytes) {
        active::StreamChunk chunk = co_await ctx.nextChunk();
        assert(chunk.tag == io::tagIoReply);
        block_forward += co_await stream.onChunk(ctx, chunk);
        consumed += chunk.bytes;
        block_consumed += chunk.bytes;
        ctx.deallocateThrough(chunk.address + chunk.bytes);

        if (block_consumed >= file.blockBytes || consumed >= file.bytes) {
            co_await ctx.send(reply_to, block_forward, std::nullopt,
                              nullptr, tagResult);
            block_consumed = 0;
            block_forward = 0;
        }
    }
}

} // namespace san::apps
