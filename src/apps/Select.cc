#include "apps/Select.hh"

#include <memory>
#include <string>

#include "apps/Cluster.hh"
#include "apps/DetHash.hh"
#include "apps/StreamCommon.hh"

namespace san::apps {

namespace {

std::uint64_t
matchesIn(const SelectParams &p, std::uint64_t first_record,
          std::uint64_t records)
{
    std::uint64_t m = 0;
    for (std::uint64_t i = 0; i < records; ++i)
        m += detChance(p.seed, first_record + i, p.selectivity);
    return m;
}

} // namespace

RunStats
runSelect(Mode mode, const SelectParams &params)
{
    ClusterParams cp = params.cluster;
    cp.hostMem = mem::scaledHostMemoryParams(); // DB-class caches
    Cluster cluster(cp);
    auto total_matches = std::make_shared<std::uint64_t>(0);

    Stream table{
        .file = {.storage = cluster.storage().id(),
                 .bytes = params.tableBytes,
                 .blockBytes = params.blockBytes},
        .name = "select",
        .codeBytes = params.handlerCodeBytes,
        // Switch-side selection: check records in the data buffers,
        // forward only matches.
        .onChunk = [&params](active::HandlerContext &ctx,
                             const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            const std::uint64_t first =
                chunk.address / params.recordBytes;
            const std::uint64_t records =
                chunk.bytes / params.recordBytes;
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_await ctx.compute(
                params.chunkOverheadInstr +
                records * params.checkInstrPerRecord);
            const std::uint64_t m = matchesIn(params, first, records);
            co_return static_cast<std::uint32_t>(
                m * params.recordBytes);
        },
        // Host scans every record of every block it reads.
        .onBlock = [&params, total_matches](
                       host::Host &h, mem::Addr buf, std::uint64_t bytes,
                       std::uint64_t off) -> sim::Task {
            const std::uint64_t records = bytes / params.recordBytes;
            const std::uint64_t first = off / params.recordBytes;
            const std::uint64_t m = matchesIn(params, first, records);
            *total_matches += m;
            co_await h.cpu().compute(records * params.checkInstrPerRecord +
                                     m * params.countInstrPerMatch);
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
        },
        .onReply = [&params, total_matches](
                       host::Host &h,
                       const net::Message &reply) -> sim::Task {
            const std::uint64_t m = reply.bytes / params.recordBytes;
            *total_matches += m;
            co_await h.cpu().compute(m * params.countInstrPerMatch);
            if (reply.bytes > 0) {
                const mem::Addr buf = h.allocBuffer(reply.bytes);
                co_await h.cpu().touch(buf, reply.bytes,
                                       mem::AccessKind::Prefetch);
            }
        },
    };
    cluster.spawnOnHost(0, placeStreams(cluster, mode, {table}));

    RunStats stats = cluster.collect(mode);
    stats.checksum = std::to_string(*total_matches);
    return stats;
}

} // namespace san::apps
