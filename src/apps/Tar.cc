#include "apps/Tar.hh"

#include <cassert>
#include <deque>
#include <memory>
#include <string>

#include "apps/Cluster.hh"
#include "apps/StreamCommon.hh"
#include "io/IoRequest.hh"

namespace san::apps {

namespace {

/** Per-file argument sent to the tar handler. */
struct TarFileArg {
    std::uint64_t index;
    std::uint64_t offset;
    std::uint64_t bytes;
    net::NodeId archiveNode;
    bool last;
};

} // namespace

RunStats
runTar(Mode mode, const TarParams &params)
{
    // Two hosts: host0 runs tar, host1 is the remote archive target.
    ClusterParams cp = params.cluster;
    cp.hosts = 2;
    Cluster cluster(cp);
    auto &host = cluster.host(0);
    auto &archive = cluster.host(1);
    auto &sw = cluster.sw();
    const net::NodeId storage = cluster.storage().id();
    const unsigned files =
        static_cast<unsigned>(params.totalBytes / params.fileBytes);
    const std::uint64_t archive_bytes =
        params.totalBytes + files * params.headerBytes;

    auto archive_received = std::make_shared<std::uint64_t>(0);

    // Archive node: drain incoming archive data (headers + file
    // contents), touching it as it is written to the output file.
    cluster.sim().spawn([](host::Host &a, std::uint64_t expected,
                           std::shared_ptr<std::uint64_t> got)
                            -> sim::Task {
        while (*got < expected) {
            net::Message m = co_await a.recv();
            *got += m.bytes;
            if (m.bytes > 0) {
                const mem::Addr buf = a.allocBuffer(m.bytes);
                co_await a.cpu().touch(buf, m.bytes,
                                       mem::AccessKind::Store);
            }
        }
    }(archive, archive_bytes, archive_received));

    if (!isActive(mode)) {
        // Host reads every file and relays headers + data to the
        // archive node.
        cluster.sim().spawn(
            [](host::Host &h, net::NodeId st, net::NodeId dst,
               const TarParams &p, unsigned files_n,
               unsigned outstanding) -> sim::Task {
                co_await h.cpu().compute(p.optionParseInstr);
                std::uint64_t pending_id = 0;
                bool have_pending = false;
                for (unsigned f = 0; f < files_n; ++f) {
                    // Keep up to `outstanding` file reads in flight.
                    if (!have_pending) {
                        pending_id = co_await h.postRead(
                            st, f * p.fileBytes, p.fileBytes);
                        have_pending = true;
                    }
                    const std::uint64_t cur = pending_id;
                    have_pending = false;
                    if (outstanding > 1 && f + 1 < files_n) {
                        pending_id = co_await h.postRead(
                            st, (f + 1) * p.fileBytes, p.fileBytes);
                        have_pending = true;
                    }
                    co_await h.awaitIo(cur);
                    // Generate and send the tar header, then relay
                    // the file data to the archive.
                    co_await h.cpu().compute(p.headerGenInstr);
                    co_await h.send(dst, p.headerBytes);
                    const mem::Addr buf = h.allocBuffer(p.fileBytes);
                    co_await h.cpu().touch(buf, p.fileBytes,
                                           mem::AccessKind::Load);
                    co_await h.send(dst, p.fileBytes);
                }
            }(host, storage, archive.id(), params, files,
              outstandingRequests(mode)));
    } else {
        // The switch handler archives one file per argument message:
        // it emits the header, reads the file from disk itself, and
        // forwards every chunk to the archive node. Arguments for
        // later files may interleave with the current file's data
        // stream (two outstanding in "+pref"), so they are stashed.
        auto handler = [&params, storage](active::HandlerContext &ctx)
            -> sim::Task {
            co_await ctx.fetchCode(0x1000, params.handlerCodeBytes);
            struct PendingFile {
                TarFileArg file;
                net::NodeId src;
            };
            std::deque<PendingFile> stashed_args;
            for (;;) {
                PendingFile next;
                if (!stashed_args.empty()) {
                    next = stashed_args.front();
                    stashed_args.pop_front();
                } else {
                    active::StreamChunk arg = co_await ctx.nextChunk();
                    assert(arg.tag == tagArgs);
                    co_await ctx.awaitValid(arg, 0, arg.bytes);
                    next.file = *static_cast<const TarFileArg *>(
                        arg.payload.get());
                    next.src = arg.src;
                    // Free the argument buffer immediately: a held
                    // mapping would collide with file-data chunks in
                    // the direct-mapped ATB.
                    ctx.deallocateOne(arg.address);
                }
                const TarFileArg file = next.file;
                const net::NodeId arg_src = next.src;

                // Header goes into the archive stream first.
                co_await ctx.send(file.archiveNode, params.headerBytes,
                                  std::nullopt, nullptr, host::tagApp);
                // Switch-initiated disk read, data mapped back into
                // this handler's address space.
                const std::uint32_t map_base =
                    static_cast<std::uint32_t>(0x1000000 + file.offset);
                co_await ctx.postRead(
                    storage, file.offset, file.bytes, ctx.owner().id(),
                    net::ActiveHeader{ctx.handlerId(), map_base, 0});
                std::uint64_t moved = 0;
                while (moved < file.bytes) {
                    active::StreamChunk c = co_await ctx.nextChunk();
                    if (c.tag == tagArgs) {
                        co_await ctx.awaitValid(c, 0, c.bytes);
                        PendingFile stash;
                        stash.file = *static_cast<const TarFileArg *>(
                            c.payload.get());
                        stash.src = c.src;
                        stashed_args.push_back(stash);
                        ctx.deallocateOne(c.address);
                        continue;
                    }
                    assert(c.tag == io::tagIoReply);
                    co_await ctx.awaitValid(c, 0, c.bytes);
                    co_await ctx.compute(params.forwardInstrPerChunk);
                    co_await ctx.send(file.archiveNode, c.bytes,
                                      std::nullopt, nullptr,
                                      host::tagApp);
                    moved += c.bytes;
                    ctx.deallocateThrough(c.address + c.bytes);
                }
                // Tell the host this file is archived.
                co_await ctx.send(arg_src, 0, std::nullopt, nullptr,
                                  tagResult);
                if (file.last)
                    break;
            }
        };
        sw.registerHandler(1, "tar", handler);

        cluster.sim().spawn(
            [](host::Host &h, net::NodeId sw_id, net::NodeId dst,
               const TarParams &p, unsigned files_n,
               unsigned outstanding) -> sim::Task {
                co_await h.cpu().compute(p.optionParseInstr);
                unsigned sent = 0, done = 0;
                while (done < files_n) {
                    while (sent < files_n && sent - done < outstanding) {
                        co_await h.cpu().compute(p.headerGenInstr);
                        auto arg = std::make_shared<TarFileArg>();
                        arg->index = sent;
                        arg->offset = sent * p.fileBytes;
                        arg->bytes = p.fileBytes;
                        arg->archiveNode = dst;
                        arg->last = (sent + 1 == files_n);
                        // The argument message carries the actual
                        // 512 B tar header (the paper: host I/O
                        // traffic = one header per file). Args live
                        // in a high address region so the handler's
                        // per-chunk Deallocate_Buffer of the file
                        // stream never frees a stashed arg.
                        co_await h.send(
                            sw_id, p.headerBytes,
                            net::ActiveHeader{
                                1,
                                0xF0000000u + (sent % 8) * 512, 0},
                            arg, tagArgs);
                        ++sent;
                    }
                    net::Message m = co_await h.recv();
                    assert(m.tag == tagResult);
                    ++done;
                }
            }(host, sw.id(), archive.id(), params, files,
              outstandingRequests(mode)));
    }

    RunStats stats = cluster.collect(mode);
    // The measured system is the host running tar; the remote
    // archive target is outside it (as in the paper).
    stats.hosts.resize(1);
    stats.hostIoBytes = host.ioTrafficBytes();
    stats.checksum = std::to_string(*archive_received);
    return stats;
}

} // namespace san::apps
