#include "apps/Grep.hh"

#include <memory>
#include <string>

#include "apps/Cluster.hh"
#include "apps/StreamCommon.hh"

namespace san::apps {

namespace {

/** Line index of the k-th matching line (spread across the file). */
std::uint64_t
matchLine(const GrepParams &p, unsigned k)
{
    const std::uint64_t lines = p.fileBytes / p.lineBytes;
    return (k * lines) / p.matchingLines + lines / (2 * p.matchingLines);
}

/** Matching lines whose *start* falls in [offset, offset+len). */
std::uint64_t
matchesInRange(const GrepParams &p, std::uint64_t offset,
               std::uint64_t len)
{
    std::uint64_t m = 0;
    for (unsigned k = 0; k < p.matchingLines; ++k) {
        const std::uint64_t pos = matchLine(p, k) * p.lineBytes;
        if (pos >= offset && pos < offset + len)
            ++m;
    }
    return m;
}

} // namespace

RunStats
runGrep(Mode mode, const GrepParams &params)
{
    Cluster cluster(params.cluster);
    auto matched_lines = std::make_shared<std::uint64_t>(0);
    auto matched_bytes = std::make_shared<std::uint64_t>(0);
    auto setup_done = std::make_shared<bool>(false);
    const mem::Addr dfa_table = 0x20000; // switch/host-local table

    Stream text{
        .file = {.storage = cluster.storage().id(),
                 .bytes = params.fileBytes,
                 .blockBytes = params.blockBytes},
        .name = "grep",
        // DFA construction happens on the switch in the active split.
        .setupInstructions = params.dfaSetupInstr,
        .codeBytes = params.handlerCodeBytes,
        .onChunk = [&params, matched_lines, matched_bytes, dfa_table](
                       active::HandlerContext &ctx,
                       const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_await ctx.compute(
                params.chunkOverheadInstr +
                chunk.bytes * params.searchInstrPerByte);
            // The DFA's hot states live in switch memory; touch a
            // line's worth per chunk to model residency effects in
            // the tiny 1 KB D$.
            co_await ctx.access(dfa_table + (chunk.address % 256) * 13,
                                64, mem::AccessKind::Load);
            const std::uint64_t m =
                matchesInRange(params, chunk.address, chunk.bytes);
            if (m > 0) {
                *matched_lines += m;
                *matched_bytes += m * params.lineBytes;
                co_await ctx.compute(m * params.perMatchInstr);
            }
            co_return static_cast<std::uint32_t>(m * params.lineBytes);
        },
        .onBlock = [&params, matched_lines, matched_bytes, setup_done,
                    dfa_table](host::Host &h, mem::Addr buf,
                               std::uint64_t bytes,
                               std::uint64_t off) -> sim::Task {
            if (!*setup_done) {
                *setup_done = true;
                co_await h.cpu().compute(params.dfaSetupInstr);
                co_await h.cpu().touch(dfa_table, params.dfaTableBytes,
                                       mem::AccessKind::Store);
            }
            const std::uint64_t m = matchesInRange(params, off, bytes);
            *matched_lines += m;
            *matched_bytes += m * params.lineBytes;
            co_await h.cpu().compute(bytes * params.searchInstrPerByte +
                                     m * params.perMatchInstr);
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
        },
        // The host only collects the (rare) matched lines.
        .onReply = [&params](host::Host &h,
                             const net::Message &reply) -> sim::Task {
            if (reply.bytes > 0) {
                const mem::Addr buf = h.allocBuffer(reply.bytes);
                co_await h.cpu().touch(buf, reply.bytes,
                                       mem::AccessKind::Load);
                co_await h.cpu().compute(
                    (reply.bytes / params.lineBytes) * 50);
            }
        },
    };
    cluster.spawnOnHost(0, placeStreams(cluster, mode, {text}));

    RunStats stats = cluster.collect(mode);
    stats.checksum = std::to_string(*matched_lines) + ":" +
                     std::to_string(*matched_bytes);
    return stats;
}

} // namespace san::apps
