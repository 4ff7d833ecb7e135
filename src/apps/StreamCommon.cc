#include "apps/StreamCommon.hh"

#include <cassert>
#include <deque>

namespace san::apps {

sim::Task
normalHostLoop(host::Host &host, net::NodeId storage,
               std::uint64_t file_bytes, std::uint64_t block_bytes,
               unsigned outstanding, BlockFn on_block)
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
            std::min<std::uint64_t>(block_bytes, file_bytes - posted);
        const std::uint64_t id =
            co_await host.postRead(storage, posted, n);
        inflight.push_back({id, posted, n});
        posted += n;
    };

    while (posted < file_bytes &&
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
        if (outstanding > 1 && posted < file_bytes)
            co_await post_next();
        // Fresh DMA landing zone: first touch is a cold miss.
        const mem::Addr buf = host.allocBuffer(blk.bytes);
        co_await on_block(host, buf, blk.bytes, blk.offset);
        if (outstanding == 1 && posted < file_bytes)
            co_await post_next();
    }
}

sim::Task
activeHostLoop(host::Host &host, ActiveLoop loop, ReplyFn on_reply)
{
    assert(loop.outstanding >= 1);
    const net::ActiveHeader arg_hdr{loop.handlerId, 0, loop.cpuId};
    co_await host.send(loop.switchNode, 64, arg_hdr, loop.args,
                       tagArgs);

    const std::uint64_t blocks =
        (loop.fileBytes + loop.blockBytes - 1) / loop.blockBytes;
    std::uint64_t posted_blocks = 0;

    auto post_next = [&]() -> sim::Task {
        const std::uint64_t off = posted_blocks * loop.blockBytes;
        const std::uint64_t n =
            std::min<std::uint64_t>(loop.blockBytes,
                                    loop.fileBytes - off);
        net::ActiveHeader hdr{loop.handlerId,
                              static_cast<std::uint32_t>(off),
                              loop.cpuId};
        co_await host.postReadTo(loop.storage, loop.diskOffset + off, n,
                                 loop.switchNode, hdr);
        ++posted_blocks;
    };

    while (posted_blocks < blocks &&
           posted_blocks < static_cast<std::uint64_t>(loop.outstanding))
        co_await post_next();

    for (std::uint64_t done = 0; done < blocks; ++done) {
        net::Message reply = co_await host.recv();
        assert(reply.tag == tagResult);
        if (posted_blocks < blocks)
            co_await post_next();
        co_await on_reply(host, reply);
    }
}

sim::Task
runFilterHandler(active::HandlerContext &ctx, FilterHandler spec)
{
    // ReadArg: the invoking message carries the arguments.
    active::StreamChunk arg = co_await ctx.nextChunk();
    assert(arg.tag == tagArgs);
    const net::NodeId reply_to = arg.src;
    co_await ctx.awaitValid(arg, 0, arg.bytes);
    co_await ctx.fetchCode(0x1000, spec.codeBytes);
    co_await ctx.compute(spec.setupInstructions);
    ctx.deallocateThrough(arg.address + ctx.owner().buffers()
                                            .params().bytes);

    std::uint64_t consumed = 0;
    std::uint64_t block_index = 0;
    std::uint64_t block_consumed = 0;
    std::uint64_t block_forward = 0;

    while (consumed < spec.fileBytes) {
        active::StreamChunk chunk = co_await ctx.nextChunk();
        assert(chunk.tag == io::tagIoReply);
        block_forward +=
            co_await spec.processChunk(ctx, chunk);
        consumed += chunk.bytes;
        block_consumed += chunk.bytes;
        ctx.deallocateThrough(chunk.address + chunk.bytes);

        const bool block_end = block_consumed >= spec.blockBytes ||
                               consumed >= spec.fileBytes;
        if (block_end) {
            net::PayloadPtr payload;
            if (spec.blockPayload)
                payload = spec.blockPayload(block_index);
            co_await ctx.send(reply_to, block_forward, std::nullopt,
                              std::move(payload), tagResult);
            ++block_index;
            block_consumed = 0;
            block_forward = 0;
        }
    }
}

} // namespace san::apps
