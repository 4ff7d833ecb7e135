#include "apps/MpegFilter.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "apps/Cluster.hh"
#include "apps/StreamCommon.hh"

namespace san::apps {

namespace {

std::uint64_t
gopBytes(const MpegParams &p)
{
    return p.iFrameBytes + p.pFramesPerGop * p.pFrameBytes;
}

/** Overlap of [a0,a1) and [b0,b1). */
std::uint64_t
overlap(std::uint64_t a0, std::uint64_t a1, std::uint64_t b0,
        std::uint64_t b1)
{
    const std::uint64_t lo = std::max(a0, b0);
    const std::uint64_t hi = std::min(a1, b1);
    return hi > lo ? hi - lo : 0;
}

} // namespace

std::uint64_t
iBytesInRange(const MpegParams &p, std::uint64_t offset,
              std::uint64_t len)
{
    // Each GOP starts with its I frame: I bytes occupy
    // [g*GOP, g*GOP + iFrameBytes) for every GOP index g.
    const std::uint64_t gop = gopBytes(p);
    std::uint64_t total = 0;
    for (std::uint64_t g = offset / gop;
         g * gop < offset + len; ++g)
        total += overlap(offset, offset + len, g * gop,
                         g * gop + p.iFrameBytes);
    return total;
}

std::uint64_t
framesInRange(const MpegParams &p, std::uint64_t offset,
              std::uint64_t len)
{
    const std::uint64_t gop = gopBytes(p);
    std::uint64_t frames = 0;
    for (std::uint64_t g = offset / gop; g * gop < offset + len; ++g) {
        // Frame start offsets within this GOP.
        std::uint64_t starts[1 + 8];
        unsigned n = 0;
        starts[n++] = g * gop;
        for (unsigned k = 0; k < p.pFramesPerGop; ++k)
            starts[n++] = g * gop + p.iFrameBytes + k * p.pFrameBytes;
        for (unsigned k = 0; k < n; ++k)
            if (starts[k] >= offset && starts[k] < offset + len)
                ++frames;
    }
    return frames;
}

RunStats
runMpegFilter(Mode mode, const MpegParams &params)
{
    Cluster cluster(params.cluster);
    auto kept_bytes = std::make_shared<std::uint64_t>(0);

    // Color reduction of the I bytes in a buffer (host side, both
    // modes): the compute-heavy decode + re-encode stage.
    auto color_reduce = [&params](host::Host &h, mem::Addr buf,
                                  std::uint64_t i_bytes) -> sim::Task {
        if (i_bytes == 0)
            co_return;
        co_await h.cpu().compute(i_bytes *
                                 params.colorReduceInstrPerByte);
        co_await h.cpu().touch(buf, i_bytes, mem::AccessKind::Load);
        // Re-encoded output written back.
        co_await h.cpu().touch(buf + 0x2000000, i_bytes,
                               mem::AccessKind::Store);
    };

    Stream clip{
        .file = {.storage = cluster.storage().id(),
                 .bytes = params.fileBytes,
                 .blockBytes = params.blockBytes},
        .name = "mpeg-filter",
        .codeBytes = params.handlerCodeBytes,
        // The frame filter, running from on-chip buffers at the
        // switch.
        .onChunk = [&params](active::HandlerContext &ctx,
                             const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            const std::uint64_t frames =
                framesInRange(params, chunk.address, chunk.bytes);
            const std::uint64_t i_bytes =
                iBytesInRange(params, chunk.address, chunk.bytes);
            co_await ctx.compute(params.chunkOverheadInstr +
                                 chunk.bytes * params.scanInstrPerByte +
                                 frames * params.headerCheckInstr);
            co_return static_cast<std::uint32_t>(i_bytes);
        },
        .onBlock = [&params, kept_bytes, color_reduce](
                       host::Host &h, mem::Addr buf, std::uint64_t bytes,
                       std::uint64_t off) -> sim::Task {
            const std::uint64_t frames = framesInRange(params, off,
                                                       bytes);
            const std::uint64_t i_bytes = iBytesInRange(params, off,
                                                        bytes);
            // Frame filter on the host: scan for start codes across
            // the whole block, check each header, copy survivors.
            co_await h.cpu().compute(bytes * params.scanInstrPerByte +
                                     frames * params.headerCheckInstr);
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
            *kept_bytes += i_bytes;
            co_await color_reduce(h, buf, i_bytes);
        },
        .onReply = [kept_bytes, color_reduce](
                       host::Host &h,
                       const net::Message &reply) -> sim::Task {
            *kept_bytes += reply.bytes;
            if (reply.bytes > 0) {
                const mem::Addr buf = h.allocBuffer(reply.bytes);
                co_await color_reduce(h, buf, reply.bytes);
            }
        },
    };
    cluster.spawnOnHost(0, placeStreams(cluster, mode, {clip}));

    RunStats stats = cluster.collect(mode);
    stats.checksum = std::to_string(*kept_bytes);
    return stats;
}

} // namespace san::apps
