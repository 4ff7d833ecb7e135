#include "apps/Select.hh"

#include <memory>
#include <string>

#include "apps/Cluster.hh"
#include "apps/DetHash.hh"
#include "apps/StreamCommon.hh"
#include "io/IoRequest.hh"

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
    auto &host = cluster.host();
    auto &sw = cluster.sw();
    const net::NodeId storage = cluster.storage().id();

    auto total_matches = std::make_shared<std::uint64_t>(0);
    const std::uint64_t records_per_chunk = 512 / params.recordBytes;

    if (!isActive(mode)) {
        // Host scans every record of every block it reads.
        auto on_block = [&params, total_matches](
                            host::Host &h, mem::Addr buf,
                            std::uint64_t bytes,
                            std::uint64_t off) -> sim::Task {
            const std::uint64_t records = bytes / params.recordBytes;
            const std::uint64_t first = off / params.recordBytes;
            const std::uint64_t m = matchesIn(params, first, records);
            *total_matches += m;
            co_await h.cpu().compute(records * params.checkInstrPerRecord +
                                     m * params.countInstrPerMatch);
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
        };
        cluster.sim().spawn(normalHostLoop(
            host, storage, params.tableBytes, params.blockBytes,
            outstandingRequests(mode), on_block));
    } else {
        // Switch-side selection: check records in the data buffers,
        // forward only matches.
        FilterHandler spec;
        spec.fileBytes = params.tableBytes;
        spec.blockBytes = params.blockBytes;
        spec.codeBytes = params.handlerCodeBytes;
        spec.processChunk =
            [&params, records_per_chunk](
                active::HandlerContext &ctx,
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
        };
        sw.registerHandler(1, "select", [spec](active::HandlerContext &c) {
            return runFilterHandler(c, spec);
        });

        auto on_reply = [&params, total_matches](
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
        };
        ActiveLoop loop;
        loop.storage = storage;
        loop.switchNode = sw.id();
        loop.handlerId = 1;
        loop.fileBytes = params.tableBytes;
        loop.blockBytes = params.blockBytes;
        loop.outstanding = outstandingRequests(mode);
        cluster.sim().spawn(activeHostLoop(host, loop, on_reply));
    }

    RunStats stats = cluster.collect(mode);
    stats.checksum = std::to_string(*total_matches);
    return stats;
}

} // namespace san::apps
