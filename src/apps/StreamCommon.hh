/**
 * @file
 * Shared host-side and switch-side machinery for the streaming
 * benchmarks (MPEG filter, HashJoin, Select, Grep, and friends).
 *
 * Protocol
 * --------
 * Active modes:
 *  1. The host sends a small active "argument" message to the switch
 *     (tag tagArgs), invoking the handler; its payload carries the
 *     app parameters. The paper's ReadArg(arg) step.
 *  2. The host posts disk reads of blockBytes each, directed at the
 *     switch handler (the memory-mapped file region of §2.2). One or
 *     two requests stay outstanding (mode without/with "+pref").
 *  3. The handler consumes the arriving MTU chunks, processes them,
 *     forwards whatever survives its filter to the host (tag
 *     tagResult, one message per block, possibly 0 bytes), and
 *     deallocates buffers as it goes.
 *  4. The host overlaps its own processing of filtered results with
 *     the stream, posting the next block on each block reply.
 *
 * Normal modes: the host reads blockBytes at a time (sync or two
 * outstanding) and processes each block itself.
 */

#ifndef SAN_APPS_STREAM_COMMON_HH
#define SAN_APPS_STREAM_COMMON_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "active/ActiveSwitch.hh"
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
 * Normal-path host loop: read @p file_bytes in @p block_bytes
 * requests with @p outstanding (1 or 2) in flight, invoking
 * @p on_block for each completed block, in file order.
 */
sim::Task normalHostLoop(host::Host &host, net::NodeId storage,
                         std::uint64_t file_bytes,
                         std::uint64_t block_bytes, unsigned outstanding,
                         BlockFn on_block);

/** Parameters of the active-path host loop. */
struct ActiveLoop {
    net::NodeId storage = net::invalidNode;
    net::NodeId switchNode = net::invalidNode;
    std::uint8_t handlerId = 0;
    std::uint8_t cpuId = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t blockBytes = 0;
    unsigned outstanding = 1;
    net::PayloadPtr args;             //!< handler argument payload
    std::uint64_t diskOffset = 0;     //!< where the file lives
};

/**
 * Active-path host loop: send the argument message, stream the file
 * through the handler with the requested number of outstanding block
 * requests, and run @p on_reply for every per-block result message.
 */
sim::Task activeHostLoop(host::Host &host, ActiveLoop loop,
                         ReplyFn on_reply);

/**
 * Per-chunk handler callback: process one arrived chunk and return
 * the number of payload bytes that survive the filter (to be
 * forwarded to the host with the block's result message).
 */
using ChunkFn = std::function<sim::ValueTask<std::uint32_t>(
    active::HandlerContext &, const active::StreamChunk &)>;

/** Configuration of the generic filtering handler. */
struct FilterHandler {
    std::uint64_t fileBytes = 0;
    std::uint64_t blockBytes = 0;
    /** Instructions charged once per invocation (setup, ReadArg). */
    std::uint64_t setupInstructions = 100;
    /** Handler code footprint fetched through the I$. */
    std::uint64_t codeBytes = 2048;
    ChunkFn processChunk;
    /** Optional payload attached to each block result. */
    std::function<net::PayloadPtr(std::uint64_t block_index)>
        blockPayload;
};

/**
 * The generic streaming filter handler (the paper's §2.2 skeleton):
 * ReadArg, then per MTU chunk: await valid lines, ProcessData,
 * Deallocate_Buffer; per block: reply to the host.
 */
sim::Task runFilterHandler(active::HandlerContext &ctx,
                           FilterHandler spec);

} // namespace san::apps

#endif // SAN_APPS_STREAM_COMMON_HH
