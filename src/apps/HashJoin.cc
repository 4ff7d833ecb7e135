#include "apps/HashJoin.hh"

#include <memory>
#include <string>

#include "apps/Cluster.hh"
#include "apps/DetHash.hh"
#include "apps/StreamCommon.hh"
#include "io/IoRequest.hh"

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

} // namespace

RunStats
runHashJoin(Mode mode, const HashJoinParams &params)
{
    ClusterParams cp = params.cluster;
    cp.hostMem = mem::scaledHostMemoryParams();
    Cluster cluster(cp);
    auto &host = cluster.host();
    auto &sw = cluster.sw();
    const net::NodeId storage = cluster.storage().id();

    auto survivors = std::make_shared<std::uint64_t>(0);
    const std::uint64_t hash_seed = params.seed;
    const std::uint64_t match_seed = params.seed ^ 0xabcdef;

    // ---- Host-side record batch processing ---------------------------
    // Build phase: hash + insert every R record.
    auto host_build = [&params, hash_seed](
                          host::Host &h, mem::Addr buf,
                          std::uint64_t bytes,
                          std::uint64_t first) -> sim::Task {
        const std::uint64_t records = bytes / params.recordBytes;
        co_await h.cpu().compute(records * (params.hashInstrPerRecord +
                                            params.buildInstrPerRecord));
        co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
        sim::Tick stall = 0;
        auto &mem_sys = h.cpu().memory();
        for (std::uint64_t i = 0; i < records; ++i) {
            const std::uint64_t hv = detHash(hash_seed, first + i);
            stall += mem_sys.dataAccess(bucketAddr(params, hv), 8,
                                        mem::AccessKind::Store,
                                        h.cpu().now() + stall);
        }
        co_await h.cpu().stallFor(stall);
    };

    // Probe phase on matching records only (both modes).
    auto host_probe = [&params](host::Host &h, std::uint64_t matches,
                                std::uint64_t first_hash_idx,
                                std::uint64_t hash_seed_v) -> sim::Task {
        co_await h.cpu().compute(matches * params.probeInstrPerMatch);
        sim::Tick stall = 0;
        auto &mem_sys = h.cpu().memory();
        for (std::uint64_t i = 0; i < matches; ++i) {
            const std::uint64_t hv =
                detHash(hash_seed_v, first_hash_idx + i);
            stall += mem_sys.dataAccess(bucketAddr(params, hv), 64,
                                        mem::AccessKind::Load,
                                        h.cpu().now() + stall);
        }
        co_await h.cpu().stallFor(stall);
    };

    if (!isActive(mode)) {
        auto on_r_block = [&params, host_build, hash_seed](
                              host::Host &h, mem::Addr buf,
                              std::uint64_t bytes,
                              std::uint64_t off) -> sim::Task {
            const std::uint64_t first = off / params.recordBytes;
            // Build the hash table...
            co_await host_build(h, buf, bytes, first);
            // ...and set bit-vector bits (normal mode does both).
            const std::uint64_t records = bytes / params.recordBytes;
            co_await h.cpu().compute(records *
                                     params.filterInstrPerRecord);
            sim::Tick stall = 0;
            auto &mem_sys = h.cpu().memory();
            for (std::uint64_t i = 0; i < records; ++i) {
                const std::uint64_t hv = detHash(hash_seed, first + i);
                stall += mem_sys.dataAccess(bitAddr(params, hv), 1,
                                            mem::AccessKind::Store,
                                            h.cpu().now() + stall);
            }
            co_await h.cpu().stallFor(stall);
        };

        auto on_s_block = [&params, host_probe, survivors, hash_seed,
                           match_seed](
                              host::Host &h, mem::Addr buf,
                              std::uint64_t bytes,
                              std::uint64_t off) -> sim::Task {
            const std::uint64_t records = bytes / params.recordBytes;
            const std::uint64_t first = off / params.recordBytes;
            co_await h.cpu().compute(
                records * (params.hashInstrPerRecord +
                           params.filterInstrPerRecord));
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
            // Bit-vector checks for every record.
            sim::Tick stall = 0;
            auto &mem_sys = h.cpu().memory();
            std::uint64_t matches = 0;
            for (std::uint64_t i = 0; i < records; ++i) {
                const std::uint64_t hv = detHash(hash_seed, first + i);
                stall += mem_sys.dataAccess(bitAddr(params, hv), 1,
                                            mem::AccessKind::Load,
                                            h.cpu().now() + stall);
                matches += detChance(match_seed, first + i,
                                     params.reductionFactor);
            }
            co_await h.cpu().stallFor(stall);
            *survivors += matches;
            co_await host_probe(h, matches, first, hash_seed ^ 0x55);
        };

        cluster.sim().spawn([](Cluster &c, host::Host &h,
                               net::NodeId st,
                               const HashJoinParams &p, unsigned out,
                               BlockFn r_fn, BlockFn s_fn) -> sim::Task {
            co_await normalHostLoop(h, st, p.rBytes, p.blockBytes, out,
                                    std::move(r_fn));
            co_await normalHostLoop(h, st, p.sBytes, p.blockBytes, out,
                                    std::move(s_fn));
            (void)c;
        }(cluster, host, storage, params, outstandingRequests(mode),
          on_r_block, on_s_block));
    } else {
        // ---- Switch handlers ----------------------------------------
        // Handler 1: R streams through; the switch sets bit-vector
        // bits and forwards everything to the host.
        FilterHandler build_spec;
        build_spec.fileBytes = params.rBytes;
        build_spec.blockBytes = params.blockBytes;
        build_spec.codeBytes = params.handlerCodeBytes;
        build_spec.processChunk =
            [&params, hash_seed](active::HandlerContext &ctx,
                                 const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            const std::uint64_t records =
                chunk.bytes / params.recordBytes;
            const std::uint64_t first =
                chunk.address / params.recordBytes;
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_await ctx.compute(
                params.chunkOverheadInstr +
                records * (params.hashInstrPerRecord +
                           params.filterInstrPerRecord));
            sim::Tick stall = 0;
            auto &mem_sys = ctx.memory();
            for (std::uint64_t i = 0; i < records; ++i) {
                const std::uint64_t hv = detHash(hash_seed, first + i);
                stall += mem_sys.dataAccess(bitAddr(params, hv), 1,
                                            mem::AccessKind::Store,
                                            ctx.sim().now() + stall);
            }
            co_await ctx.stallFor(stall);
            co_return chunk.bytes; // R passes through to the host
        };

        // Handler 2: S is filtered in the switch; only survivors go
        // to the host.
        FilterHandler filter_spec;
        filter_spec.fileBytes = params.sBytes;
        filter_spec.blockBytes = params.blockBytes;
        filter_spec.codeBytes = params.handlerCodeBytes;
        filter_spec.processChunk =
            [&params, hash_seed, match_seed, survivors](
                active::HandlerContext &ctx,
                const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            const std::uint64_t records =
                chunk.bytes / params.recordBytes;
            const std::uint64_t first =
                chunk.address / params.recordBytes;
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_await ctx.compute(
                params.chunkOverheadInstr +
                records * (params.hashInstrPerRecord +
                           params.filterInstrPerRecord));
            sim::Tick stall = 0;
            auto &mem_sys = ctx.memory();
            std::uint64_t matches = 0;
            for (std::uint64_t i = 0; i < records; ++i) {
                const std::uint64_t hv = detHash(hash_seed, first + i);
                stall += mem_sys.dataAccess(bitAddr(params, hv), 1,
                                            mem::AccessKind::Load,
                                            ctx.sim().now() + stall);
                matches += detChance(match_seed, first + i,
                                     params.reductionFactor);
            }
            co_await ctx.stallFor(stall);
            *survivors += matches;
            co_return static_cast<std::uint32_t>(
                matches * params.recordBytes);
        };

        sw.registerHandler(1, "hj-build",
                           [build_spec](active::HandlerContext &c) {
                               return runFilterHandler(c, build_spec);
                           });
        sw.registerHandler(2, "hj-filter",
                           [filter_spec](active::HandlerContext &c) {
                               return runFilterHandler(c, filter_spec);
                           });

        // ---- Host side ----------------------------------------------
        auto r_cursor = std::make_shared<std::uint64_t>(0);
        auto on_r_reply = [&params, host_build, r_cursor](
                              host::Host &h,
                              const net::Message &reply) -> sim::Task {
            const std::uint64_t first = *r_cursor;
            *r_cursor += reply.bytes / params.recordBytes;
            if (reply.bytes > 0) {
                const mem::Addr buf = h.allocBuffer(reply.bytes);
                co_await host_build(h, buf, reply.bytes, first);
            }
        };

        auto probe_cursor = std::make_shared<std::uint64_t>(0);
        auto on_s_reply = [&params, host_probe, probe_cursor, hash_seed](
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
            co_await host_probe(h, matches, first, hash_seed ^ 0x55);
        };

        cluster.sim().spawn(
            [](host::Host &h, net::NodeId st, net::NodeId sw_id,
               const HashJoinParams &p, unsigned out, ReplyFn r_fn,
               ReplyFn s_fn) -> sim::Task {
                ActiveLoop r_loop;
                r_loop.storage = st;
                r_loop.switchNode = sw_id;
                r_loop.handlerId = 1;
                r_loop.fileBytes = p.rBytes;
                r_loop.blockBytes = p.blockBytes;
                r_loop.outstanding = out;
                co_await activeHostLoop(h, r_loop, std::move(r_fn));

                ActiveLoop s_loop;
                s_loop.storage = st;
                s_loop.switchNode = sw_id;
                s_loop.handlerId = 2;
                s_loop.fileBytes = p.sBytes;
                s_loop.blockBytes = p.blockBytes;
                s_loop.outstanding = out;
                s_loop.diskOffset = p.rBytes;
                co_await activeHostLoop(h, s_loop, std::move(s_fn));
            }(host, storage, sw.id(), params, outstandingRequests(mode),
              on_r_reply, on_s_reply));
    }

    RunStats stats = cluster.collect(mode);
    stats.checksum = std::to_string(*survivors);
    return stats;
}

} // namespace san::apps
