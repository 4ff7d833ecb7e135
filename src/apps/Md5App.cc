#include "apps/Md5App.hh"

#include <memory>
#include <vector>

#include "apps/Cluster.hh"
#include "apps/DetHash.hh"
#include "apps/Md5.hh"
#include "apps/StreamCommon.hh"
#include "io/IoRequest.hh"

namespace san::apps {

namespace {

/** Deterministic pseudo-random input (same in every mode). */
std::vector<std::uint8_t>
makeInput(const Md5Params &p)
{
    std::vector<std::uint8_t> data(p.fileBytes);
    for (std::uint64_t i = 0; i < p.fileBytes; i += 8) {
        const std::uint64_t v = detHash(p.seed, i / 8);
        for (unsigned b = 0; b < 8 && i + b < p.fileBytes; ++b)
            data[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    return data;
}

/** Bytes of the file assigned to chain k (blocks dealt round-robin). */
std::uint64_t
shareOf(const Md5Params &p, unsigned k)
{
    std::uint64_t share = 0;
    const std::uint64_t blocks =
        (p.fileBytes + p.blockBytes - 1) / p.blockBytes;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        if (b % p.switchCpus == k) {
            const std::uint64_t off = b * p.blockBytes;
            share += std::min<std::uint64_t>(p.blockBytes,
                                             p.fileBytes - off);
        }
    }
    return share;
}

} // namespace

RunStats
runMd5(Mode mode, const Md5Params &params)
{
    ClusterParams cp = params.cluster;
    cp.active.cpus = isActive(mode) ? params.switchCpus : 1;
    Cluster cluster(cp);
    auto &host = cluster.host();
    auto &sw = cluster.sw();
    const net::NodeId storage = cluster.storage().id();

    const std::vector<std::uint8_t> input = makeInput(params);

    if (!isActive(mode)) {
        auto on_block = [&params](host::Host &h, mem::Addr buf,
                                  std::uint64_t bytes,
                                  std::uint64_t) -> sim::Task {
            co_await h.cpu().compute(bytes *
                                     params.digestInstrPerByte);
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
        };
        cluster.sim().spawn(
            [](host::Host &h, net::NodeId st, const Md5Params &p,
               unsigned out, BlockFn fn) -> sim::Task {
                co_await normalHostLoop(
                    h,
                    {.storage = st,
                     .bytes = p.fileBytes,
                     .blockBytes = p.blockBytes},
                    out, std::move(fn));
                co_await h.cpu().compute(p.finalizeInstr);
            }(host, storage, params, outstandingRequests(mode),
              on_block));
    } else {
        // One handler instance per switch CPU, each digesting its
        // chain of blocks.
        auto handler = [params](active::HandlerContext &ctx)
            -> sim::Task {
            active::StreamChunk arg = co_await ctx.nextChunk();
            const net::NodeId reply_to = arg.src;
            co_await ctx.awaitValid(arg, 0, arg.bytes);
            co_await ctx.fetchCode(0x1000, params.handlerCodeBytes);
            ctx.deallocateOne(arg.address);

            const std::uint64_t share = shareOf(params, ctx.cpuIndex());
            std::uint64_t consumed = 0, in_block = 0;
            while (consumed < share) {
                active::StreamChunk c = co_await ctx.nextChunk();
                co_await ctx.awaitValid(c, 0, c.bytes);
                co_await ctx.compute(params.chunkOverheadInstr +
                                     c.bytes *
                                         params.digestInstrPerByte);
                consumed += c.bytes;
                in_block += c.bytes;
                ctx.deallocateThrough(c.address + c.bytes);
                if (in_block >= params.blockBytes || consumed >= share) {
                    in_block = 0;
                    co_await ctx.send(reply_to, 0, std::nullopt,
                                      nullptr, tagResult);
                }
            }
            co_await ctx.compute(params.finalizeInstr);
            co_await ctx.send(reply_to, 16, std::nullopt, nullptr,
                              tagData);
        };
        sw.registerHandler(1, "md5", handler);

        cluster.sim().spawn(
            [](host::Host &h, net::NodeId st, net::NodeId sw_id,
               const Md5Params &p, unsigned outstanding) -> sim::Task {
                // Invoke one handler instance per chain.
                for (unsigned k = 0; k < p.switchCpus; ++k)
                    co_await h.send(
                        sw_id, 64,
                        net::ActiveHeader{
                            1, static_cast<std::uint32_t>(
                                   0xF000000 + k * 512),
                            static_cast<std::uint8_t>(k)},
                        nullptr, tagArgs);

                const std::uint64_t blocks =
                    (p.fileBytes + p.blockBytes - 1) / p.blockBytes;
                std::uint64_t posted = 0, acked = 0;
                auto post = [&]() -> sim::Task {
                    const std::uint64_t off = posted * p.blockBytes;
                    const std::uint64_t len = std::min<std::uint64_t>(
                        p.blockBytes, p.fileBytes - off);
                    co_await h.postReadTo(
                        st, off, len, sw_id,
                        net::ActiveHeader{
                            1, static_cast<std::uint32_t>(off),
                            static_cast<std::uint8_t>(posted %
                                                      p.switchCpus)});
                    ++posted;
                };
                // Each chain keeps its own window of outstanding
                // blocks; the aggregate stream feeds all K CPUs.
                const std::uint64_t window =
                    static_cast<std::uint64_t>(outstanding) *
                    p.switchCpus;
                while (posted < blocks && posted < window)
                    co_await post();
                unsigned digests = 0;
                while (acked < blocks || digests < p.switchCpus) {
                    net::Message m = co_await h.recv();
                    if (m.tag == tagResult) {
                        ++acked;
                        if (posted < blocks)
                            co_await post();
                    } else {
                        ++digests;
                    }
                }
                // Digest-of-digests on the host.
                co_await h.cpu().compute(p.switchCpus * 16 *
                                             p.digestInstrPerByte +
                                         p.finalizeInstr);
            }(host, storage, sw.id(), params,
              outstandingRequests(mode)));
    }

    RunStats stats = cluster.collect(mode);
    stats.checksum =
        isActive(mode)
            ? toHex(md5Interleaved(input, params.switchCpus,
                                   params.blockBytes))
            : toHex(md5(input));
    return stats;
}

} // namespace san::apps
