#include "apps/HashJoin.hh"

#include <memory>
#include <string>

#include "apps/Cluster.hh"
#include "apps/DetHash.hh"
#include "apps/StreamCommon.hh"

namespace san::apps {

namespace {

/** Memory-layout anchors (model addresses, disjoint regions). */
constexpr mem::Addr bitVectorBase = 0x4000000;   // 128 KB bit-vector
constexpr mem::Addr hashTableBase = 0x8000000;   // R hash table

/** Address of the bit-vector byte a record's hash selects. */
mem::Addr
bitAddr(const HashJoinParams &p, std::uint64_t h)
{
    return bitVectorBase + (h % (p.bitVectorBytes * 8)) / 8;
}

/** Address of the hash-table bucket a record's hash selects. */
mem::Addr
bucketAddr(const HashJoinParams &p, std::uint64_t h)
{
    // Buckets span the in-memory R relation (16 MB working set).
    return hashTableBase + (h % p.rBytes) / 64 * 64;
}

/** Memory stall of one bit-vector pass over @p records records from
 * @p first, starting at @p now: R sets each record's bit (Store), S
 * tests it (Load). */
sim::Tick
bitVectorStall(const HashJoinParams &p, mem::MemorySystem &mem_sys,
               mem::AccessKind kind, std::uint64_t first,
               std::uint64_t records, sim::Tick now)
{
    sim::Tick stall = 0;
    for (std::uint64_t i = 0; i < records; ++i)
        stall += mem_sys.dataAccess(bitAddr(p, detHash(p.seed, first + i)),
                                    1, kind, now + stall);
    return stall;
}

/** S records among @p records from @p first that pass the filter. */
std::uint64_t
survivorsIn(const HashJoinParams &p, std::uint64_t first,
            std::uint64_t records)
{
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < records; ++i)
        n += detChance(p.seed ^ 0xabcdef, first + i, p.reductionFactor);
    return n;
}

} // namespace

RunStats
runHashJoin(Mode mode, const HashJoinParams &params)
{
    ClusterParams cp = params.cluster;
    cp.hostMem = mem::scaledHostMemoryParams();
    Cluster cluster(cp);
    const net::NodeId storage = cluster.storage().id();
    auto survivors = std::make_shared<std::uint64_t>(0);

    // ---- Host-side record batch processing ---------------------------
    // Build phase: hash + insert every R record.
    auto host_build = [&params](host::Host &h, mem::Addr buf,
                                std::uint64_t bytes,
                                std::uint64_t first) -> sim::Task {
        const std::uint64_t records = bytes / params.recordBytes;
        co_await h.cpu().compute(records * (params.hashInstrPerRecord +
                                            params.buildInstrPerRecord));
        co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
        sim::Tick stall = 0;
        auto &mem_sys = h.cpu().memory();
        for (std::uint64_t i = 0; i < records; ++i) {
            const std::uint64_t hv = detHash(params.seed, first + i);
            stall += mem_sys.dataAccess(bucketAddr(params, hv), 8,
                                        mem::AccessKind::Store,
                                        h.cpu().now() + stall);
        }
        co_await h.cpu().stallFor(stall);
    };

    // Probe phase on matching records only (both modes).
    auto host_probe = [&params](host::Host &h, std::uint64_t matches,
                                std::uint64_t first) -> sim::Task {
        co_await h.cpu().compute(matches * params.probeInstrPerMatch);
        sim::Tick stall = 0;
        auto &mem_sys = h.cpu().memory();
        for (std::uint64_t i = 0; i < matches; ++i) {
            const std::uint64_t hv = detHash(params.seed ^ 0x55, first + i);
            stall += mem_sys.dataAccess(bucketAddr(params, hv), 64,
                                        mem::AccessKind::Load,
                                        h.cpu().now() + stall);
        }
        co_await h.cpu().stallFor(stall);
    };

    // The switch's bit-vector pass over one chunk (active modes).
    auto switch_pass = [&params](active::HandlerContext &ctx,
                                 const active::StreamChunk &chunk,
                                 mem::AccessKind kind) -> sim::Task {
        const std::uint64_t records = chunk.bytes / params.recordBytes;
        co_await ctx.awaitValid(chunk, 0, chunk.bytes);
        co_await ctx.compute(params.chunkOverheadInstr +
                             records * (params.hashInstrPerRecord +
                                        params.filterInstrPerRecord));
        co_await ctx.stallFor(bitVectorStall(
            params, ctx.memory(), kind, chunk.address / params.recordBytes,
            records, ctx.sim().now()));
    };

    // ---- R: the bit-vector bits are set (in the switch in the
    // active modes, which forwards every record) and the host builds
    // its hash table.
    auto r_cursor = std::make_shared<std::uint64_t>(0);
    Stream r{
        .file = {.storage = storage,
                 .bytes = params.rBytes,
                 .blockBytes = params.blockBytes},
        .handlerId = 1,
        .name = "hj-build",
        .codeBytes = params.handlerCodeBytes,
        .onChunk = [switch_pass](active::HandlerContext &ctx,
                                 const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await switch_pass(ctx, chunk, mem::AccessKind::Store);
            co_return chunk.bytes; // R passes through to the host
        },
        .onBlock = [&params, host_build](
                       host::Host &h, mem::Addr buf, std::uint64_t bytes,
                       std::uint64_t off) -> sim::Task {
            const std::uint64_t first = off / params.recordBytes;
            const std::uint64_t records = bytes / params.recordBytes;
            // Build the hash table and set the bits.
            co_await host_build(h, buf, bytes, first);
            co_await h.cpu().compute(records *
                                     params.filterInstrPerRecord);
            co_await h.cpu().stallFor(bitVectorStall(
                params, h.cpu().memory(), mem::AccessKind::Store, first,
                records, h.cpu().now()));
        },
        .onReply = [&params, host_build, r_cursor](
                       host::Host &h,
                       const net::Message &reply) -> sim::Task {
            const std::uint64_t first = *r_cursor;
            *r_cursor += reply.bytes / params.recordBytes;
            if (reply.bytes > 0) {
                const mem::Addr buf = h.allocBuffer(reply.bytes);
                co_await host_build(h, buf, reply.bytes, first);
            }
        },
    };

    // ---- S, stored after R: the bit-vector filters it (in the
    // switch in the active modes) and the host probes the survivors.
    auto probe_cursor = std::make_shared<std::uint64_t>(0);
    Stream s{
        .file = {.storage = storage,
                 .diskOffset = params.rBytes,
                 .bytes = params.sBytes,
                 .blockBytes = params.blockBytes},
        .handlerId = 2,
        .name = "hj-filter",
        .codeBytes = params.handlerCodeBytes,
        .onChunk = [&params, switch_pass, survivors](
                       active::HandlerContext &ctx,
                       const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await switch_pass(ctx, chunk, mem::AccessKind::Load);
            const std::uint64_t matches =
                survivorsIn(params, chunk.address / params.recordBytes,
                            chunk.bytes / params.recordBytes);
            *survivors += matches;
            co_return static_cast<std::uint32_t>(
                matches * params.recordBytes);
        },
        .onBlock = [&params, host_probe, survivors](
                       host::Host &h, mem::Addr buf, std::uint64_t bytes,
                       std::uint64_t off) -> sim::Task {
            const std::uint64_t records = bytes / params.recordBytes;
            const std::uint64_t first = off / params.recordBytes;
            co_await h.cpu().compute(
                records * (params.hashInstrPerRecord +
                           params.filterInstrPerRecord));
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
            co_await h.cpu().stallFor(bitVectorStall(
                params, h.cpu().memory(), mem::AccessKind::Load, first,
                records, h.cpu().now()));
            const std::uint64_t matches =
                survivorsIn(params, first, records);
            *survivors += matches;
            co_await host_probe(h, matches, first);
        },
        .onReply = [&params, host_probe, probe_cursor](
                       host::Host &h,
                       const net::Message &reply) -> sim::Task {
            const std::uint64_t matches =
                reply.bytes / params.recordBytes;
            if (reply.bytes > 0) {
                const mem::Addr buf = h.allocBuffer(reply.bytes);
                co_await h.cpu().touch(buf, reply.bytes,
                                       mem::AccessKind::Load);
            }
            const std::uint64_t first = *probe_cursor;
            *probe_cursor += matches;
            co_await host_probe(h, matches, first);
        },
    };
    cluster.spawnOnHost(0, placeStreams(cluster, mode, {r, s}));

    RunStats stats = cluster.collect(mode);
    stats.checksum = std::to_string(*survivors);
    return stats;
}

} // namespace san::apps
