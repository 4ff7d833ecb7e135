/**
 * @file
 * The streaming benchmarks' shared skeleton (MPEG filter, HashJoin,
 * Select, Grep, and friends; the paper's §2.2): a Stream states its
 * file once and the work on its records in both placements, and
 * placeStreams() places that work for a Mode.
 *
 * Protocol
 * --------
 * Active modes:
 *  1. The host sends a small active "argument" message to the switch
 *     (tag tagArgs), invoking the handler. The paper's ReadArg(arg)
 *     step.
 *  2. The host posts disk reads of blockBytes each, directed at the
 *     switch handler (the memory-mapped file region of §2.2). One or
 *     two requests stay outstanding (mode without/with "+pref").
 *  3. The handler consumes the arriving MTU chunks, runs onChunk on
 *     each, forwards whatever survives its filter to the host (tag
 *     tagResult, one message per block, possibly 0 bytes), and
 *     deallocates buffers as it goes.
 *  4. The host runs onReply on each block's result, overlapping its
 *     own processing with the stream, and posts the next block on
 *     each block reply.
 *
 * Normal modes: the host reads blockBytes at a time (sync or two
 * outstanding) and runs onBlock on each block itself.
 */

#ifndef SAN_APPS_STREAM_COMMON_HH
#define SAN_APPS_STREAM_COMMON_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "active/ActiveSwitch.hh"
#include "apps/Cluster.hh"
#include "apps/RunConfig.hh"
#include "host/Host.hh"
#include "sim/Task.hh"

namespace san::apps {

/** @{ Application-level message tags. */
inline constexpr std::uint32_t tagArgs = host::tagApp + 1;
inline constexpr std::uint32_t tagResult = host::tagApp + 2;
inline constexpr std::uint32_t tagData = host::tagApp + 3;
/** @} */

/** Per-block processing callback of the normal-mode host loop: the
 * host, the block's fresh buffer, its length, and its offset in the
 * file. */
using BlockFn = std::function<sim::Task(host::Host &, mem::Addr,
                                        std::uint64_t bytes,
                                        std::uint64_t offset)>;

/** Per-reply processing callback of the active-mode host loop. */
using ReplyFn =
    std::function<sim::Task(host::Host &, const net::Message &)>;

/**
 * Per-chunk handler callback: process one arrived chunk and return
 * the number of payload bytes that survive the filter (to be
 * forwarded to the host with the block's result message).
 */
using ChunkFn = std::function<sim::ValueTask<std::uint32_t>(
    active::HandlerContext &, const active::StreamChunk &)>;

/** A file the host streams: where it lives and how it is read. */
struct StreamFile {
    net::NodeId storage = net::invalidNode; //!< node that stores it
    std::uint64_t diskOffset = 0; //!< its first byte on the disks
    std::uint64_t bytes = 0;      //!< file size
    std::uint64_t blockBytes = 0; //!< bytes per read request
};

/**
 * One streamed file and the work on its records in either placement:
 * onBlock on the host (normal modes), or onChunk in switch handler
 * handlerId and onReply on the host (active modes).
 */
struct Stream {
    StreamFile file;
    std::uint8_t handlerId = 1;
    std::string name; //!< the handler's name (profiles, traces)
    /** Handler instructions charged once per invocation (ReadArg). */
    std::uint64_t setupInstructions = 100;
    /** Handler code footprint fetched through the I$. */
    std::uint64_t codeBytes = 2048;
    ChunkFn onChunk{};
    BlockFn onBlock{};
    ReplyFn onReply{};
};

/**
 * Place @p streams for @p mode on @p cluster: register each stream's
 * filter handler (active modes only) and return host 0's task, which
 * reads the streams in turn with outstandingRequests(@p mode) reads
 * in flight. Start it with Cluster::spawnOnHost(0, ...).
 */
sim::Task placeStreams(Cluster &cluster, Mode mode,
                       std::vector<Stream> streams);

/**
 * Normal-path host loop: read @p file with @p outstanding (1 or 2)
 * requests in flight, invoking @p on_block for each completed block,
 * in file order.
 */
sim::Task normalHostLoop(host::Host &host, StreamFile file,
                         unsigned outstanding, BlockFn on_block);

/**
 * Active-path host loop: send the argument message to @p stream's
 * handler on @p switch_node, stream its file through the handler
 * with @p outstanding block requests in flight, and run its onReply
 * for every per-block result message.
 */
sim::Task activeHostLoop(host::Host &host, Stream stream,
                         net::NodeId switch_node, unsigned outstanding);

/**
 * The generic streaming filter handler (the paper's §2.2 skeleton):
 * ReadArg, then per MTU chunk: @p stream's onChunk (await valid
 * lines, ProcessData), Deallocate_Buffer; per block: reply to the
 * host.
 */
sim::Task runFilterHandler(active::HandlerContext &ctx, Stream stream);

} // namespace san::apps

#endif // SAN_APPS_STREAM_COMMON_HH
