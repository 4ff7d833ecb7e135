/**
 * @file
 * Active-vs-normal at fabric scale: handler placement on multi-switch
 * topologies (DESIGN.md §13).
 *
 * Builds the net::Topology fabrics — k=4 and k=8 fat-trees (16 / 128
 * hosts) and a dragonfly a=4,p=4,h=2 (144 hosts) — entirely out of
 * ActiveSwitches and replays the paper's filter-offload experiment
 * across handler placements. Every host except a collector streams
 * messages; a filter handler passes 1/16th of the bytes on to the
 * collector. Where the filter runs decides what the fabric carries:
 *
 *   normal  no handler — raw streams converge on the collector host,
 *           whose single edge link is the incast bottleneck.
 *   edge    the filter runs on each sender's own edge switch /
 *           router: full distribution, only matches cross the fabric.
 *   mid     one concentration point per group (a pod's first
 *           aggregation switch; a dragonfly group's first router).
 *   hub     one switch for everything (fat-tree core 0 / the
 *           collector's router) — active, but maximally concentrated.
 *
 * Also in this bench: the fabric-wide traffic patterns (uniform /
 * adversarial permutation / group-local) at scale on every topology,
 * a 10-seed x 2-run fingerprint-stability check, and a route-lookup
 * scaling micro (1 K vs 16 K routing entries — the hot-path lookup
 * must not be O(#destinations); the wall-clock ratio is gated).
 *
 * All simulated numbers are deterministic and byte-stable. Prints a
 * JSON report on stdout (tools/perf_baseline, schema
 * san-fabric-scale-v1) and tables on stderr. Gates:
 * --min-edge-speedup X on source_gbps(edge)/source_gbps(normal) per
 * topology; --max-lookup-ratio X on the route-lookup micro.
 *
 * Shares the figure benches' observability flags (BenchCommon.hh):
 * --telemetry plus --latency-report writes per-placement lineage
 * tables (the terminal handler hop included), --fingerprint and
 * --perf print per-placement fingerprint and perf[...] lines on
 * stderr, --trace gives every run a trace process, and the fault
 * flags give every run a fresh fault plan. Its runs build no
 * apps::Cluster, so --stats-json, --metrics-csv and
 * --metrics-interval exit 2.
 *
 * Usage: fabric_scale [--quick] [--messages N] [--message-bytes N]
 *                     [--seeds N] [--min-edge-speedup X]
 *                     [--max-lookup-ratio X] [shared flags]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "BenchCommon.hh"
#include "active/ActiveSwitch.hh"
#include "net/Topology.hh"
#include "net/Traffic.hh"
#include "obs/Fingerprint.hh"
#include "obs/Json.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::net;

constexpr std::uint8_t kFilterHandlerId = 7;
constexpr std::uint32_t kFilterDivisor = 16;

struct Settings {
    unsigned messages = 8;          //!< messages per sender
    std::uint32_t messageBytes = 4096;
    unsigned seeds = 10;            //!< fingerprint-stability seeds
    unsigned patternMessages = 4;   //!< per host, pattern sweep
    unsigned threads = 1;           //!< PDES workers (placement runs)
};

/** One benchmark topology. */
struct Shape {
    const char *name;
    bool fatTree;
    unsigned k;          //!< fat-tree arity
    DragonflyParams df;  //!< dragonfly shape
};

enum class Placement { Normal, Edge, Mid, Hub };
constexpr Placement kPlacements[] = {Placement::Normal,
                                     Placement::Edge, Placement::Mid,
                                     Placement::Hub};

const char *
placementName(Placement p)
{
    switch (p) {
    case Placement::Normal: return "normal";
    case Placement::Edge: return "edge";
    case Placement::Mid: return "mid";
    case Placement::Hub: return "hub";
    }
    return "?";
}

Topology
build(Fabric &fabric, const Shape &shape,
      const active::ActiveConfig &acfg)
{
    return shape.fatTree
               ? buildFatTree<active::ActiveSwitch>(
                     fabric, FatTreeParams{shape.k}, acfg)
               : buildDragonfly<active::ActiveSwitch>(fabric,
                                                      shape.df, acfg);
}

/**
 * The filter handler: validate the chunk, charge the scan cost, and
 * on a message's last chunk forward bytes/16 to the collector. No
 * cross-chunk state, so instances shared by many senders (mid / hub)
 * interleave safely.
 */
sim::Task
filterBody(active::HandlerContext &ctx, NodeId collector)
{
    for (;;) {
        const active::StreamChunk chunk = co_await ctx.nextChunk();
        co_await ctx.awaitValid(chunk, 0, chunk.bytes);
        // ~0.25 instructions/byte plus per-chunk overhead: one
        // 500 MHz switch CPU filters a touch above line rate, so
        // concentration — not handler speed — is what placements
        // compare.
        co_await ctx.compute(32 + chunk.bytes / 4);
        const bool last = chunk.lastOfMessage;
        const std::uint64_t msgBytes = chunk.messageBytes;
        const std::uint32_t tag = chunk.tag;
        ctx.deallocateOne(chunk.address);
        if (last) {
            std::uint64_t matched = msgBytes / kFilterDivisor;
            if (matched == 0)
                matched = 1;
            co_await ctx.send(collector, matched, std::nullopt,
                              nullptr, tag);
        }
    }
}

sim::Task
senderPump(Adapter &host, NodeId dst,
           std::optional<ActiveHeader> hdr_base, unsigned messages,
           std::uint32_t bytes, sim::Tick spacing, unsigned slot)
{
    for (unsigned j = 0; j < messages; ++j) {
        std::optional<ActiveHeader> hdr = hdr_base;
        if (hdr) {
            // Per-sender 16 MB ATB window, 128 KB stride per
            // message: chunk addresses never collide across the
            // senders sharing a handler instance.
            hdr->address =
                (static_cast<std::uint32_t>(slot) + 1) * 0x01000000u +
                (j % 128u) * 0x20000u;
        }
        host.sendMessage(dst, bytes, hdr, nullptr,
                         static_cast<std::uint32_t>(slot) * 4096u +
                             j + 1);
        co_await sim::Delay{spacing};
    }
}

sim::Task
drainCollector(Adapter &host, std::uint64_t expected,
               sim::Tick *last_at, std::uint64_t *msgs,
               std::uint64_t *bytes)
{
    for (std::uint64_t i = 0; i < expected; ++i) {
        const Message m = co_await host.recvQueue().pop();
        ++*msgs;
        *bytes += m.bytes;
        *last_at = std::max(*last_at, m.completedAt);
    }
}

struct PlacementResult {
    std::uint64_t collectorMsgs = 0;
    std::uint64_t collectorBytes = 0;
    double makespanUs = 0.0;
    double sourceGBps = 0.0; //!< offered source bytes / makespan
    std::uint64_t handlerChunks = 0;
    std::uint64_t dispatchStalls = 0;
    std::uint64_t events = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t e2eP99Ns = 0; //!< 0 unless --telemetry
};

/** One placement run; its lineage table, under --telemetry, goes to
 * @p latency_out under @p label. */
PlacementResult
runPlacement(const sim::RunContext &context, const Shape &shape,
             Placement pl, const Settings &s, const std::string &label,
             std::ostream *latency_out)
{
    sim::Simulation sim(context);
    Fabric fabric(sim);
    active::ActiveConfig acfg;
    acfg.cpus = 4;
    const Topology topo = build(fabric, shape, acfg);

    // Threaded run: one shard per switch; every host adapter lives on
    // its edge switch's shard (net::Fabric::planShards). The pattern
    // sweep and the seed-stability loop stay single-threaded — the
    // placement runs are the scaling workload.
    if (s.threads > 1)
        fabric.applyShardPlan(fabric.planShards(topo.switchCount()));
    obs::ShardedFingerprint fp;
    fp.attach(sim);

    const unsigned collector = 0;
    const NodeId collectorId = topo.hosts[collector]->id();

    std::vector<Switch *> all;
    all.insert(all.end(), topo.edge.begin(), topo.edge.end());
    all.insert(all.end(), topo.aggregation.begin(),
               topo.aggregation.end());
    all.insert(all.end(), topo.core.begin(), topo.core.end());
    for (Switch *sw : all)
        static_cast<active::ActiveSwitch *>(sw)->registerHandler(
            kFilterHandlerId, "filter",
            [collectorId](active::HandlerContext &ctx) {
                return filterBody(ctx, collectorId);
            });

    const unsigned perEdge =
        shape.fatTree ? shape.k / 2 : shape.df.hostsPerRouter;
    const unsigned m = shape.fatTree ? shape.k / 2 : 0;
    const auto targetOf = [&](unsigned h) -> Switch * {
        switch (pl) {
        case Placement::Edge:
            return topo.edge[h / perEdge];
        case Placement::Mid:
            // One concentration point per group: the pod's first
            // aggregation switch / the group's first router.
            return shape.fatTree
                       ? topo.aggregation[topo.hostGroup[h] * m]
                       : topo.edge[topo.hostGroup[h] *
                                   shape.df.routersPerGroup];
        case Placement::Hub:
            return shape.fatTree ? topo.core[0] : topo.edge[0];
        case Placement::Normal:
            break;
        }
        return nullptr;
    };

    const std::uint64_t pkts =
        (s.messageBytes + fabric.mtu() - 1) / fabric.mtu();
    const sim::Tick spacing =
        sim::ns(s.messageBytes + pkts * headerBytes);

    // Per-target round-robin CPU assignment: senders that share a
    // concentration switch spread over its 4 embedded CPUs.
    std::unordered_map<const Switch *, unsigned> localIndex;
    std::uint64_t senders = 0;
    std::uint64_t sourceBytes = 0;
    for (unsigned h = 0; h < topo.hosts.size(); ++h) {
        if (h == collector)
            continue;
        ++senders;
        sourceBytes +=
            static_cast<std::uint64_t>(s.messages) * s.messageBytes;
        std::optional<ActiveHeader> hdr;
        NodeId dst = collectorId;
        if (Switch *target = targetOf(h)) {
            ActiveHeader a;
            a.handlerId = kFilterHandlerId;
            a.cpuId = static_cast<std::uint8_t>(
                localIndex[target]++ % acfg.cpus);
            hdr = a;
            dst = target->id();
        }
        // The pump sends its first message at spawn time, so the
        // spawn itself must land on the sender's shard.
        sim::ShardGuard guard(sim, fabric.shardOf(*topo.hosts[h]));
        sim.spawn(senderPump(*topo.hosts[h], dst, hdr, s.messages,
                             s.messageBytes, spacing, h));
    }

    sim::Tick lastAt = 0;
    std::uint64_t msgs = 0, bytes = 0;
    {
        sim::ShardGuard guard(sim, fabric.shardOf(*topo.hosts[collector]));
        sim.spawn(drainCollector(*topo.hosts[collector],
                                 senders * s.messages, &lastAt, &msgs,
                                 &bytes));
    }

    sim.runSharded(s.threads);
    PlacementResult r;
    r.collectorMsgs = msgs;
    r.collectorBytes = bytes;
    r.makespanUs = static_cast<double>(lastAt) / 1e6;
    if (lastAt > 0)
        r.sourceGBps = static_cast<double>(sourceBytes) * 1e3 /
                       static_cast<double>(lastAt);
    for (Switch *sw : all) {
        auto *as = static_cast<active::ActiveSwitch *>(sw);
        r.handlerChunks += as->chunksStaged();
        r.dispatchStalls += as->dispatchStalls();
    }
    r.events = fp.eventsFolded();
    r.fingerprint = fp.value();
    if (obs::Telemetry *tel = context.telemetry) {
        const obs::TelemetryStats &t = tel->finishRun();
        const auto fc = pl == Placement::Normal
                            ? obs::FlowClass::Data
                            : obs::FlowClass::Active;
        r.e2eP99Ns =
            t.stageHist(fc, obs::Stage::EndToEnd).percentile(9900) /
            1000;
        if (latency_out)
            harness::printTelemetryStats(*latency_out, label, t);
    }
    return r;
}

struct PatternResult {
    std::uint64_t delivered = 0;
    double aggGBps = 0.0;
    double latMeanNs = 0.0;
    double latMaxNs = 0.0;
    double interFrac = 0.0;
};

const char *
patternKey(TrafficParams::Pattern p)
{
    switch (p) {
    case TrafficParams::Pattern::Uniform: return "uniform";
    case TrafficParams::Pattern::Permutation:
        return "permutation";
    case TrafficParams::Pattern::GroupLocal:
        return "group_local";
    default: // the single-switch hotspot patterns
        return "?";
    }
}

PatternResult
runPattern(const sim::RunContext &context, const Shape &shape,
           TrafficParams::Pattern pattern, std::uint64_t seed,
           const Settings &s, std::uint64_t *fingerprint)
{
    sim::Simulation sim(context);
    obs::RunFingerprint fp;
    sim.events().setObserver(&fp);
    Fabric fabric(sim);
    // Plain switches: the pattern sweep measures the fabric and the
    // spread rule, not the active hardware.
    const Topology topo =
        shape.fatTree
            ? buildFatTree(fabric, FatTreeParams{shape.k})
            : buildDragonfly(fabric, shape.df);

    TrafficParams p;
    p.pattern = pattern;
    p.seed = seed;
    p.messages = s.patternMessages;
    p.messageBytes = s.messageBytes;
    TrafficGen gen(sim, topo.hosts, topo.hostGroup, p);
    gen.start();
    sim.run();

    const TrafficReport rep = gen.report();
    if (rep.delivered != rep.posted) {
        std::fprintf(stderr,
                     "FATAL: %s/%s lost messages: posted %llu "
                     "delivered %llu\n",
                     shape.name, patternKey(pattern),
                     static_cast<unsigned long long>(rep.posted),
                     static_cast<unsigned long long>(rep.delivered));
        std::exit(1);
    }
    PatternResult r;
    r.delivered = rep.delivered;
    r.aggGBps = rep.aggregateGBps;
    r.latMeanNs = rep.latencyMeanNs;
    r.latMaxNs = rep.latencyMaxNs;
    if (rep.delivered > 0)
        r.interFrac = static_cast<double>(rep.interGroup) /
                      static_cast<double>(rep.delivered);
    if (fingerprint)
        *fingerprint = fp.value();
    return r;
}

/** A fingerprint as the report prints it: "0x" and lowercase hex. */
std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Route-lookup scaling micro: ns/lookup at 1 K vs 16 K entries. */
struct LookupMicro {
    double nsSmall = 0.0;
    double nsBig = 0.0;
    double ratio = 0.0;
    std::uint64_t guard = 0; //!< defeats dead-code elimination
};

LookupMicro
runLookupMicro()
{
    sim::Simulation sim;
    LookupMicro r;
    constexpr unsigned kPorts = 16;
    constexpr std::uint64_t kLookups = 1u << 22;
    const auto measure = [&](std::size_t entries) {
        Switch sw(sim, "micro", 1, SwitchParams{kPorts});
        std::vector<NodeId> dsts(entries);
        for (std::size_t i = 0; i < entries; ++i) {
            dsts[i] = static_cast<NodeId>(detMix64(i) >> 24);
            sw.setRoute(dsts[i],
                        static_cast<unsigned>(i % kPorts));
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kLookups; ++i)
            r.guard += sw.route(dsts[i & (entries - 1)]);
        const double ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return ns / static_cast<double>(kLookups);
    };
    r.nsSmall = measure(1024);
    r.nsBig = measure(16384);
    r.ratio = r.nsSmall > 0 ? r.nsBig / r.nsSmall : 0.0;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Settings s;
    std::optional<unsigned> messages, seeds;
    double minEdgeSpeedup = 0.0;
    double maxLookupRatio = 0.0;
    const char *noCluster = "this bench builds no apps::Cluster";
    bench::Flags own;
    own.number("--messages", messages)
        .number("--message-bytes", s.messageBytes)
        .number("--seeds", seeds)
        .number("--min-edge-speedup", minEdgeSpeedup)
        .number("--max-lookup-ratio", maxLookupRatio)
        .reject("--stats-json", noCluster)
        .reject("--metrics-csv", noCluster)
        .reject("--metrics-interval", noCluster);
    bench::Bench bench(argc, argv, /*threaded=*/true, std::move(own));
    const auto &opts = bench.options();

    if (opts.quick) {
        s.messages = 4;
        s.seeds = 3;
        s.patternMessages = 2;
    }
    s.messages = messages.value_or(s.messages);
    s.seeds = seeds.value_or(s.seeds);
    s.threads = opts.threads;

    std::vector<Shape> shapes;
    shapes.push_back({"fattree4", true, 4, {}});
    if (!opts.quick)
        shapes.push_back({"fattree8", true, 8, {}});
    shapes.push_back(
        {opts.quick ? "dragonfly221" : "dragonfly442", false, 0,
         opts.quick ? DragonflyParams{2, 2, 1}
                    : DragonflyParams{4, 4, 2}});

    const auto pattern = [&](const Shape &shape,
                             TrafficParams::Pattern p, std::uint64_t seed,
                             std::uint64_t *fingerprint) {
        const std::string label = std::string(shape.name) + "/" +
                                  patternKey(p) + "/seed" +
                                  std::to_string(seed);
        return bench
            .run(label,
                 [&](const sim::RunContext &context) {
                     return runPattern(context, shape, p, seed, s,
                                       fingerprint);
                 })
            .result;
    };
    std::ostringstream lineage;
    std::ostream *latencyOut =
        opts.latencyReportPath.empty() ? nullptr : &lineage;

    const LookupMicro micro = runLookupMicro();
    std::fprintf(stderr,
                 "route lookup: %.2f ns @1k entries, %.2f ns @16k "
                 "(ratio %.2f)\n",
                 micro.nsSmall, micro.nsBig, micro.ratio);

    constexpr TrafficParams::Pattern kPatterns[] = {
        TrafficParams::Pattern::Uniform,
        TrafficParams::Pattern::Permutation,
        TrafficParams::Pattern::GroupLocal};

    bool gateFailed = false;
    obs::JsonWriter json(std::cout);
    json.beginObject().kv("schema", "san-fabric-scale-v1")
        .kv("quick", opts.quick)
        .kv("threads", s.threads)
        .kv("messages_per_sender", s.messages)
        .kv("message_bytes", s.messageBytes)
        .kv("filter_divisor", kFilterDivisor)
        .key("route_lookup").beginObject()
        .kv("entries_small", 1024)
        .kv("entries_big", 16384)
        .kv("ns_small", micro.nsSmall)
        .kv("ns_big", micro.nsBig)
        .kv("ratio", micro.ratio)
        .endObject()
        .key("topologies").beginObject();

    for (const Shape &shape : shapes) {
        const std::size_t nHosts = shape.fatTree
                                       ? fatTreeHostCount(shape.k)
                                       : dragonflyHostCount(shape.df);
        const std::size_t nSwitches =
            shape.fatTree ? fatTreeSwitchCount(shape.k)
                          : dragonflySwitchCount(shape.df);
        json.key(shape.name).beginObject()
            .kv("hosts", nHosts)
            .kv("switches", nSwitches)
            .kv("links", shape.fatTree ? fatTreeLinkCount(shape.k)
                                       : dragonflyLinkCount(shape.df))
            .kv("groups", shape.fatTree ? shape.k
                                        : dragonflyGroupCount(shape.df))
            .key("patterns").beginObject();

        for (const auto p : kPatterns) {
            const PatternResult pr = pattern(shape, p, 1, nullptr);
            json.key(patternKey(p)).beginObject()
                .kv("delivered", pr.delivered)
                .kv("agg_gbps", pr.aggGBps)
                .kv("lat_mean_ns", pr.latMeanNs)
                .kv("lat_max_ns", pr.latMaxNs)
                .kv("inter_group_frac", pr.interFrac)
                .endObject();
        }
        json.endObject().key("placements").beginObject();

        std::fprintf(stderr,
                     "== %s: %zu hosts, %zu switches ==\n"
                     "%-8s %10s %12s %12s %10s %10s %12s\n",
                     shape.name, nHosts, nSwitches, "place",
                     "coll msgs", "makespan us", "source GB/s",
                     "chunks", "stalls", "e2e p99 ns");

        double normalGBps = 0.0, edgeGBps = 0.0;
        for (const Placement pl : kPlacements) {
            const std::string label =
                std::string(shape.name) + "/" + placementName(pl);
            const auto run = bench.run(
                label, [&](const sim::RunContext &context) {
                    return runPlacement(context, shape, pl, s, label,
                                        latencyOut);
                });
            const PlacementResult &pr = run.result;
            if (pl == Placement::Normal)
                normalGBps = pr.sourceGBps;
            if (pl == Placement::Edge)
                edgeGBps = pr.sourceGBps;
            json.key(placementName(pl)).beginObject()
                .kv("collector_msgs", pr.collectorMsgs)
                .kv("collector_bytes", pr.collectorBytes)
                .kv("makespan_us", pr.makespanUs)
                .kv("source_gbps", pr.sourceGBps)
                .kv("handler_chunks", pr.handlerChunks)
                .kv("dispatch_stalls", pr.dispatchStalls)
                .kv("e2e_p99_ns", pr.e2eP99Ns)
                .kv("events", pr.events)
                .kv("wall_ms", run.time.wallMs)
                .kv("fingerprint", hex(pr.fingerprint))
                .endObject();
            std::fprintf(stderr,
                         "%-8s %10llu %12.3f %12.4f %10llu %10llu "
                         "%12llu\n",
                         placementName(pl),
                         static_cast<unsigned long long>(
                             pr.collectorMsgs),
                         pr.makespanUs, pr.sourceGBps,
                         static_cast<unsigned long long>(
                             pr.handlerChunks),
                         static_cast<unsigned long long>(
                             pr.dispatchStalls),
                         static_cast<unsigned long long>(
                             pr.e2eP99Ns));
            if (opts.fingerprint)
                std::fprintf(stderr, "fingerprint[%s]: 0x%llx\n",
                             label.c_str(),
                             static_cast<unsigned long long>(
                                 pr.fingerprint));
            bench.printPerf(std::cerr, label, pr.events, run.time);
        }

        const double edgeSpeedup =
            normalGBps > 0 ? edgeGBps / normalGBps : 0.0;
        std::fprintf(stderr,
                     "headline: %s edge-placement filters at %.2fx "
                     "the normal-mode source rate\n",
                     shape.name, edgeSpeedup);
        if (minEdgeSpeedup > 0 && edgeSpeedup < minEdgeSpeedup) {
            std::fprintf(stderr,
                         "FAIL: %s edge speedup %.2f below required "
                         "%.2f\n",
                         shape.name, edgeSpeedup, minEdgeSpeedup);
            gateFailed = true;
        }

        // Seed sweep: every seed twice on the uniform pattern; the
        // two fingerprints must agree bit for bit.
        json.endObject()
            .kv("edge_speedup", edgeSpeedup)
            .key("seed_fingerprints")
            .beginArray();
        bool stable = true;
        for (unsigned seed = 1; seed <= s.seeds; ++seed) {
            std::uint64_t fpA = 0, fpB = 0;
            pattern(shape, TrafficParams::Pattern::Uniform, seed, &fpA);
            pattern(shape, TrafficParams::Pattern::Uniform, seed, &fpB);
            if (fpA != fpB)
                stable = false;
            json.value(hex(fpA));
        }
        if (!stable) {
            std::fprintf(stderr,
                         "FAIL: %s fingerprints unstable across "
                         "repeat runs\n",
                         shape.name);
            gateFailed = true;
        }
        json.endArray().kv("seeds_stable", stable).endObject();
    }

    json.endObject().kv("lookup_guard", micro.guard).endObject();
    bench.writeLatencyReport(
        [&](std::ostream &os) { os << lineage.str(); });

    if (maxLookupRatio > 0 && micro.ratio > maxLookupRatio) {
        std::fprintf(stderr,
                     "FAIL: route-lookup scaling ratio %.2f above "
                     "allowed %.2f (lookup is not O(1))\n",
                     micro.ratio, maxLookupRatio);
        gateFailed = true;
    }
    return gateFailed ? 1 : 0;
}
