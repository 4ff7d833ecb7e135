/**
 * @file
 * Domain example: a log-scrubbing appliance.
 *
 * A server stores large request logs; an analysis host needs only
 * the error records (~3% of lines). Running the scrubber as a switch
 * handler turns a full-log transfer into an errors-only transfer and
 * frees the analysis host almost entirely — the HashJoin/Grep
 * pattern applied to a systems-operations workload.
 *
 * The example runs the same job twice (host-side scrub vs in-switch
 * scrub) and prints the comparison.
 *
 * Build & run:  ./build/examples/log_scrubber
 */

#include <cstdio>

#include "apps/Cluster.hh"
#include "apps/DetHash.hh"
#include "apps/StreamCommon.hh"

using namespace san;
using namespace san::apps;

namespace {

constexpr std::uint64_t logBytes = 8 * 1024 * 1024;
constexpr std::uint64_t lineBytes = 128;
constexpr std::uint64_t blockBytes = 64 * 1024;
constexpr double errorRate = 0.03;
constexpr std::uint64_t scanInstrPerLine = 90;
constexpr std::uint64_t seed = 0x10c;

bool
isErrorLine(std::uint64_t line)
{
    return detChance(seed, line, errorRate);
}

std::uint64_t
errorsIn(std::uint64_t offset, std::uint64_t len)
{
    std::uint64_t n = 0;
    for (std::uint64_t l = offset / lineBytes;
         l < (offset + len) / lineBytes; ++l)
        n += isErrorLine(l);
    return n;
}

struct Outcome {
    sim::Tick exec;
    double hostUtil;
    std::uint64_t hostBytes;
    std::uint64_t errors;
};

Outcome
runScrub(Mode mode)
{
    Cluster cluster;
    std::uint64_t errors = 0;

    // The host scans whole blocks, or the switch scans each chunk
    // and forwards only the error lines.
    Stream log{
        .file = {.storage = cluster.storage().id(),
                 .bytes = logBytes,
                 .blockBytes = blockBytes},
        .name = "scrub",
        .onChunk = [&errors](active::HandlerContext &ctx,
                             const active::StreamChunk &chunk)
            -> sim::ValueTask<std::uint32_t> {
            co_await ctx.awaitValid(chunk, 0, chunk.bytes);
            co_await ctx.compute(
                chunk.bytes / lineBytes * scanInstrPerLine);
            const std::uint64_t n = errorsIn(chunk.address, chunk.bytes);
            errors += n;
            co_return static_cast<std::uint32_t>(n * lineBytes);
        },
        .onBlock = [&errors](host::Host &h, mem::Addr buf,
                             std::uint64_t bytes,
                             std::uint64_t off) -> sim::Task {
            errors += errorsIn(off, bytes);
            co_await h.cpu().compute(bytes / lineBytes *
                                     scanInstrPerLine);
            co_await h.cpu().touch(buf, bytes, mem::AccessKind::Load);
        },
        .onReply = [](host::Host &h,
                      const net::Message &reply) -> sim::Task {
            if (reply.bytes > 0) {
                const mem::Addr buf = h.allocBuffer(reply.bytes);
                co_await h.cpu().touch(buf, reply.bytes,
                                       mem::AccessKind::Load);
            }
        },
    };
    cluster.spawnOnHost(0, placeStreams(cluster, mode, {log}));

    const sim::Tick end = cluster.sim().run();
    return Outcome{end, cluster.host().cpu().breakdown(end).utilization(),
                   cluster.host().ioTrafficBytes(), errors};
}

} // namespace

int
main()
{
    const Outcome on_host = runScrub(Mode::NormalPref);
    const Outcome on_switch = runScrub(Mode::ActivePref);

    std::printf("log scrubbing, %llu MB log, %.0f%% error lines\n",
                static_cast<unsigned long long>(logBytes >> 20),
                errorRate * 100);
    std::printf("%-14s %12s %12s %14s %10s\n", "where", "time(ms)",
                "host-util", "host-bytes", "errors");
    std::printf("%-14s %12.2f %12.3f %14llu %10llu\n", "host scrub",
                sim::toMillis(on_host.exec), on_host.hostUtil,
                static_cast<unsigned long long>(on_host.hostBytes),
                static_cast<unsigned long long>(on_host.errors));
    std::printf("%-14s %12.2f %12.3f %14llu %10llu\n", "switch scrub",
                sim::toMillis(on_switch.exec), on_switch.hostUtil,
                static_cast<unsigned long long>(on_switch.hostBytes),
                static_cast<unsigned long long>(on_switch.errors));
    if (on_host.errors != on_switch.errors) {
        std::fprintf(stderr, "error-count mismatch!\n");
        return 1;
    }
    std::printf("traffic reduction: %.1fx, host offload: %.1fx\n",
                static_cast<double>(on_host.hostBytes) /
                    static_cast<double>(on_switch.hostBytes),
                on_host.hostUtil / on_switch.hostUtil);
    return 0;
}
