/**
 * @file
 * Tests for the sharded conservative-PDES kernel (DESIGN.md §14).
 *
 * The contract under test:
 *
 *  - Partition sanity: Fabric::planShards puts every switch and every
 *    adapter in exactly one shard, the conservative lookahead is the
 *    minimum propagation over shard-boundary links, and the shard
 *    count clamps to the component count.
 *  - Worker-count independence: the shard partition is a function of
 *    the topology, never of the worker-thread count, so the merged
 *    per-shard fingerprint is bit-identical for 1, 2 and 4 workers
 *    and across repeat runs (checked over a 10-seed sweep on a k=4
 *    fat-tree, and under every switch policy kind).
 *  - Semantic equality: a figure workload (fig03 MPEG filter, fig16
 *    distributed reduce) computes the same answer — same checksum,
 *    same simulated end time — threaded or not; the fingerprint
 *    differs between the one-shard digest and the multi-shard merge.
 *  - Pinned digests: literal S>1 fingerprints, as the goldens pin
 *    the one-shard case, and the active hub's staging order across
 *    handler instances on one shard and on one shard per switch.
 *  - One-shot faults: a handler-crash event crashes the handler's
 *    first launch on every switch that launches it, with one
 *    fingerprint at 2 and 4 workers and across repeats.
 *  - Shard context: outside a worker or ShardGuard, a one-shard
 *    simulation resolves to shard 0 and a multi-shard one throws.
 *  - Events at maxTick run, with one shard or several.
 *  - Warnings: a multi-shard run prints them when it ends, in shard
 *    order, the same at every worker count and also when the run
 *    fails; a one-shard run prints them as they happen.
 *  - Round loop: same-stamp messages run in (source shard, post
 *    order) order, a message reaches a shard with nothing else to
 *    do, a second run sees work scheduled after the first, mail
 *    posted before a run is delivered, and a few busy shards among
 *    100 trade mail identically on 1 and 4 workers.
 *  - Degenerate partitions hold: one component per shard (the
 *    maximum cut) still merges deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "PolicyMatrix.hh"
#include "active/ActiveSwitch.hh"
#include "apps/Cluster.hh"
#include "apps/MpegFilter.hh"
#include "apps/Reduction.hh"
#include "fault/FaultPlan.hh"
#include "net/Topology.hh"
#include "obs/Fingerprint.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using namespace san::net;

// ---------------------------------------------------------------
// Partition sanity on a k=4 fat-tree (20 switches, 16 hosts).
// ---------------------------------------------------------------

TEST(ShardPlan, EveryComponentInExactlyOneShard)
{
    sim::Simulation sim;
    Fabric fabric(sim);
    const Topology topo = buildFatTree(fabric, FatTreeParams{4});

    for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                     std::size_t{7}}) {
        const ShardPlan plan = fabric.planShards(shards);
        EXPECT_EQ(plan.shards, shards);
        EXPECT_EQ(plan.switchShard.size(), topo.switchCount());
        EXPECT_EQ(plan.adapterShard.size(), fabric.adapters().size());
        for (const std::size_t s : plan.switchShard)
            EXPECT_LT(s, plan.shards);
        for (const std::size_t s : plan.adapterShard)
            EXPECT_LT(s, plan.shards);
        // A block partition over >= 2 shards must actually use more
        // than one shard.
        EXPECT_GT(*std::max_element(plan.switchShard.begin(),
                                    plan.switchShard.end()),
                  0u);
    }
}

TEST(ShardPlan, LookaheadIsMinBoundaryLinkPropagation)
{
    sim::Simulation sim;
    Fabric fabric(sim);
    const Topology topo = buildFatTree(fabric, FatTreeParams{4});
    (void)topo;

    const ShardPlan plan = fabric.planShards(4);
    EXPECT_GT(plan.boundaryLinks, 0u);
    // Every link in this build uses the default LinkParams, so the
    // minimum over any non-empty boundary set is that propagation.
    EXPECT_EQ(plan.lookahead, LinkParams{}.propagation);

    // One shard: no boundary, lookahead degenerates to "infinite".
    const ShardPlan solo = fabric.planShards(1);
    EXPECT_EQ(solo.boundaryLinks, 0u);
    EXPECT_EQ(solo.lookahead, sim::maxTick);
}

TEST(ShardPlan, ShardCountClampsToComponentCount)
{
    sim::Simulation sim;
    Fabric fabric(sim);
    const Topology topo = buildFatTree(fabric, FatTreeParams{4});

    const std::size_t units =
        topo.switchCount() + fabric.adapters().size();
    const ShardPlan plan = fabric.planShards(units + 100);
    EXPECT_EQ(plan.shards, units);

    // The degenerate maximum cut: every component alone. All shard
    // ids distinct across switches and adapters together.
    std::vector<bool> used(plan.shards, false);
    for (const std::size_t s : plan.switchShard) {
        EXPECT_FALSE(used[s]);
        used[s] = true;
    }
    for (const std::size_t s : plan.adapterShard) {
        EXPECT_FALSE(used[s]);
        used[s] = true;
    }
}

// ---------------------------------------------------------------
// A small deterministic cross-fabric workload on a k=4 fat-tree:
// every host sends a few messages to a seed-chosen peer; the peer
// side just drains. Spawns are pinned to the sender's shard exactly
// as the production benches do.
// ---------------------------------------------------------------

sim::Task
pump(Adapter &host, NodeId dst, unsigned messages, std::uint32_t bytes,
     sim::Tick spacing, std::uint32_t tag)
{
    for (unsigned j = 0; j < messages; ++j) {
        host.sendMessage(dst, bytes, std::nullopt, nullptr,
                         tag * 64 + j + 1);
        co_await sim::Delay{spacing};
    }
}

sim::Task
drain(Adapter &host, std::uint64_t expected, std::uint64_t *bytes)
{
    for (std::uint64_t i = 0; i < expected; ++i) {
        const Message m = co_await host.recvQueue().pop();
        *bytes += m.bytes;
    }
}

/** Run the workload on S shards of a k-ary fat-tree (@p arity) whose
 * switches run @p policy, with @p workers threads; returns the merged
 * fingerprint (and the total bytes drained via @p bytes_out, for a
 * semantic cross-check). */
std::uint64_t
fatTreeRun(std::uint64_t seed, std::size_t shards, unsigned workers,
           std::uint64_t *bytes_out = nullptr, unsigned arity = 4,
           const SwitchPolicyConfig &policy = {})
{
    sim::Simulation sim;
    Fabric fabric(sim);
    FatTreeParams shape{arity};
    shape.switchParams.policy = policy;
    const Topology topo = buildFatTree(fabric, shape);
    const unsigned n = static_cast<unsigned>(topo.hosts.size());

    const ShardPlan plan = fabric.planShards(shards);
    fabric.applyShardPlan(plan);
    obs::ShardedFingerprint fp;
    fp.attach(sim);

    // Seed-dependent peer choice and message count: a cheap way to
    // get 10 distinct event streams without a full RNG workload.
    std::vector<std::uint64_t> expected(n, 0);
    struct Plan {
        unsigned src, dst, messages;
    };
    std::vector<Plan> sends;
    for (unsigned h = 0; h < n; ++h) {
        const unsigned peer =
            static_cast<unsigned>((h * 7 + seed * 5 + 3) % n);
        const unsigned dst = peer == h ? (h + 1) % n : peer;
        const unsigned messages = 2 + (h + seed) % 3;
        sends.push_back({h, dst, messages});
        expected[dst] += messages;
    }
    std::vector<std::uint64_t> drained(n, 0);
    for (unsigned h = 0; h < n; ++h) {
        sim::ShardGuard guard(
            sim,
            plan.adapterShard[fabric.adapterIndex(*topo.hosts[h])]);
        if (expected[h] > 0)
            sim.spawn(
                drain(*topo.hosts[h], expected[h], &drained[h]));
    }
    for (const Plan &p : sends) {
        sim::ShardGuard guard(
            sim, plan.adapterShard[fabric.adapterIndex(
                     *topo.hosts[p.src])]);
        sim.spawn(pump(*topo.hosts[p.src], topo.hosts[p.dst]->id(),
                       p.messages, 2048, sim::us(1), p.src));
    }

    sim.runSharded(workers);
    if (bytes_out) {
        *bytes_out = 0;
        for (const std::uint64_t b : drained)
            *bytes_out += b;
    }
    return fp.value();
}

TEST(ShardedRun, FingerprintIndependentOfWorkerCount)
{
    // 10 seeds x {1, 2, 4} workers on an 8-shard partition: the
    // merged digest depends on the partition and the workload only.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        std::uint64_t bytes1 = 0, bytes2 = 0, bytes4 = 0;
        const std::uint64_t w1 = fatTreeRun(seed, 8, 1, &bytes1);
        const std::uint64_t w2 = fatTreeRun(seed, 8, 2, &bytes2);
        const std::uint64_t w4 = fatTreeRun(seed, 8, 4, &bytes4);
        EXPECT_EQ(w1, w2) << "seed " << seed;
        EXPECT_EQ(w1, w4) << "seed " << seed;
        EXPECT_EQ(bytes1, bytes2) << "seed " << seed;
        EXPECT_EQ(bytes1, bytes4) << "seed " << seed;
        EXPECT_GT(bytes1, 0u) << "seed " << seed;
    }
}

/** Bytes the k=4 workload of @p seed posts: each of the 16 hosts
 * sends 2 + (h + seed) % 3 messages of 2 KB. */
std::uint64_t
fatTreeK4Bytes(std::uint64_t seed)
{
    std::uint64_t bytes = 0;
    for (std::uint64_t h = 0; h < 16; ++h)
        bytes += (2 + (h + seed) % 3) * 2048;
    return bytes;
}

class ShardedPolicyRun : public ::testing::TestWithParam<std::string>
{};

TEST_P(ShardedPolicyRun, FingerprintIndependentOfWorkerCount)
{
    // The buffered policies schedule their own service events on the
    // switch's shard; the merged digest must still be a function of
    // the partition and the workload only, and every byte must land.
    const SwitchPolicyConfig policy = test::policyOf(GetParam());
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::uint64_t bytes1 = 0, bytes2 = 0, bytes4 = 0;
        const std::uint64_t w1 =
            fatTreeRun(seed, 8, 1, &bytes1, 4, policy);
        const std::uint64_t w2 =
            fatTreeRun(seed, 8, 2, &bytes2, 4, policy);
        const std::uint64_t w4 =
            fatTreeRun(seed, 8, 4, &bytes4, 4, policy);
        EXPECT_EQ(w1, w2) << "seed " << seed;
        EXPECT_EQ(w1, w4) << "seed " << seed;
        EXPECT_EQ(bytes1, fatTreeK4Bytes(seed)) << "seed " << seed;
        EXPECT_EQ(bytes2, bytes1) << "seed " << seed;
        EXPECT_EQ(bytes4, bytes1) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, ShardedPolicyRun, test::policySpecs(),
                         test::policyName);

TEST(ShardedRun, RepeatRunsAreBitStable)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::uint64_t a = fatTreeRun(seed, 8, 4);
        const std::uint64_t b = fatTreeRun(seed, 8, 4);
        EXPECT_EQ(a, b) << "seed " << seed;
    }
    // Different seeds must actually produce different streams, or
    // the equality checks above prove nothing.
    EXPECT_NE(fatTreeRun(1, 8, 4), fatTreeRun(2, 8, 4));
}

// The S>1 digests, pinned bit for bit as the S=1 goldens pin the
// one-shard case. A change to the window protocol, the channel
// delivery order or the per-shard merge moves these values.
TEST(ShardedRun, FatTreeDigestIsPinned)
{
    EXPECT_EQ(fatTreeRun(1, 8, 2), 0x75d1d008f3d46832ull);
}

// The repository benchmark's shape: a k=8 fat-tree cut one shard per
// switch (80 shards, 6,400 shard pairs), where most shards sit idle
// in most rounds.
TEST(ShardedRun, FatTreeK8PerSwitchDigestIsPinned)
{
    std::uint64_t bytes1 = 0, bytes4 = 0;
    EXPECT_EQ(fatTreeRun(1, 80, 1, &bytes1, 8), 0x9558fc8982d00188ull);
    EXPECT_EQ(fatTreeRun(1, 80, 4, &bytes4, 8), 0x9558fc8982d00188ull);
    EXPECT_EQ(bytes1, 788480u);
    EXPECT_EQ(bytes4, 788480u);
}

// ---------------------------------------------------------------
// fabric_scale's quick hub shape: a k=4 fat-tree of ActiveSwitches
// with 4 CPUs each and a filter handler on core switch 0. Every other
// host sends 4 x 4 KB to it, each sender taking the next of the
// hub's 4 CPU ids, so four handler instances share the 16 data
// buffers and their waiting arrivals interleave. The values below pin
// the Dispatch unit's staging bit for bit; the variant with one
// instance per sender is the one where the order across instances
// shows (see the test).
// ---------------------------------------------------------------

constexpr std::uint8_t kFilterHandler = 7;

sim::Task
hubFilter(active::HandlerContext &ctx, NodeId collector)
{
    for (;;) {
        const active::StreamChunk chunk = co_await ctx.nextChunk();
        co_await ctx.awaitValid(chunk, 0, chunk.bytes);
        co_await ctx.compute(32 + chunk.bytes / 4);
        const bool last = chunk.lastOfMessage;
        const std::uint64_t bytes = chunk.messageBytes;
        const std::uint32_t tag = chunk.tag;
        ctx.deallocateOne(chunk.address);
        if (last)
            co_await ctx.send(collector,
                              std::max<std::uint64_t>(1, bytes / 16),
                              std::nullopt, nullptr, tag);
    }
}

sim::Task
hubSender(Adapter &host, NodeId hub, ActiveHeader hdr, unsigned slot,
          sim::Tick spacing)
{
    for (unsigned j = 0; j < 4; ++j) {
        // A 16 MB ATB window per sender, 128 KB per message.
        hdr.address = (slot + 1) * 0x01000000u + j * 0x20000u;
        host.sendMessage(hub, 4096, hdr, nullptr, slot * 4096u + j + 1);
        co_await sim::Delay{spacing};
    }
}

struct HubRun {
    std::uint64_t fingerprint = 0;
    std::uint64_t stalls = 0;         //!< the hub's dispatch stalls
    std::uint64_t collectorBytes = 0;
    /** The tags of the filter's results, in the order the collector
     * got them: instances that stage in swapped order at one tick
     * leave the event ticks, and so the fingerprint, unchanged. */
    std::uint64_t resultOrder = 0;
};

sim::Task
hubCollector(Adapter &host, std::uint64_t expected, HubRun *r)
{
    for (std::uint64_t i = 0; i < expected; ++i) {
        const Message m = co_await host.recvQueue().pop();
        r->collectorBytes += m.bytes;
        r->resultOrder = r->resultOrder * 1000003u + m.tag;
    }
}

/** The hub shape on one shard, or on one shard per switch, with the
 *  senders dealt round-robin over @p instances handler instances. */
HubRun
hubRun(bool per_switch, unsigned workers, unsigned instances = 4)
{
    sim::Simulation sim;
    Fabric fabric(sim);
    active::ActiveConfig acfg;
    acfg.cpus = 4;
    const Topology topo = buildFatTree<active::ActiveSwitch>(
        fabric, FatTreeParams{4}, acfg);
    if (per_switch)
        fabric.applyShardPlan(fabric.planShards(topo.switchCount()));
    obs::ShardedFingerprint fp;
    fp.attach(sim);

    auto *hub = static_cast<active::ActiveSwitch *>(topo.core[0]);
    const NodeId collector = topo.hosts[0]->id();
    hub->registerHandler(kFilterHandler, "filter",
                         [collector](active::HandlerContext &ctx) {
                             return hubFilter(ctx, collector);
                         });

    const std::uint64_t pkts = (4096 + fabric.mtu() - 1) / fabric.mtu();
    const sim::Tick spacing = sim::ns(4096 + pkts * headerBytes);
    const unsigned n = static_cast<unsigned>(topo.hosts.size());
    for (unsigned h = 1; h < n; ++h) {
        ActiveHeader hdr;
        hdr.handlerId = kFilterHandler;
        hdr.cpuId = static_cast<std::uint8_t>((h - 1) % instances);
        sim::ShardGuard guard(sim, fabric.shardOf(*topo.hosts[h]));
        sim.spawn(hubSender(*topo.hosts[h], hub->id(), hdr, h, spacing));
    }
    HubRun r;
    {
        sim::ShardGuard guard(sim, fabric.shardOf(*topo.hosts[0]));
        sim.spawn(hubCollector(*topo.hosts[0], 4u * (n - 1), &r));
    }
    sim.runSharded(workers);
    r.fingerprint = fp.value();
    r.stalls = hub->dispatchStalls();
    return r;
}

// The values fabric_scale --quick prints for fattree4/hub at
// --threads 1 and at --threads 2 or more.
TEST(ShardedRun, HubDispatchOrderIsPinned)
{
    const HubRun one = hubRun(false, 1);
    EXPECT_EQ(one.fingerprint, 0x9904e476a15413fbull);
    EXPECT_EQ(one.stalls, 323u);
    EXPECT_EQ(one.collectorBytes, 15360u);
    EXPECT_EQ(one.resultOrder, 0x68946137467d1d08ull);
    for (const unsigned workers : {1u, 4u}) {
        const HubRun sharded = hubRun(true, workers);
        EXPECT_EQ(sharded.fingerprint, 0x91025dcada11312full)
            << workers << " workers";
        EXPECT_EQ(sharded.stalls, 322u) << workers << " workers";
        EXPECT_EQ(sharded.collectorBytes, 15360u)
            << workers << " workers";
        EXPECT_EQ(sharded.resultOrder, 0x104d985de4524b58ull)
            << workers << " workers";
    }

    // With 4 instances the fair share (4 buffers each) binds, so only
    // the instance that freed a buffer can take it. With one instance
    // per sender the share floors at 2 each, a freed buffer can go to
    // any of several instances, and the arrival order decides which.
    const HubRun many = hubRun(false, 1, 15);
    EXPECT_EQ(many.fingerprint, 0xf0d2a1d05cdde5c2ull);
    EXPECT_EQ(many.stalls, 295u);
    EXPECT_EQ(many.collectorBytes, 15360u);
    EXPECT_EQ(many.resultOrder, 0x68946137467d1d08ull);
}

// ---------------------------------------------------------------
// A one-shot handler crash on a sharded fabric: the filter runs on
// every edge switch of a k=4 fat-tree of ActiveSwitches, for that
// switch's own senders, and one "0:handler-crash:7" event is in the
// plan. Each switch's crash site holds its own copy of the event, so
// the filter's first launch crashes on every switch that launches it
// and no shard races another for the event.
// ---------------------------------------------------------------

struct CrashRun {
    std::uint64_t fingerprint = 0;
    std::uint64_t failovers = 0;
    unsigned launchers = 0; //!< edge switches that launched the filter
    std::uint64_t collectorBytes = 0;
};

CrashRun
edgeCrashRun(unsigned workers)
{
    fault::FaultPlan faults;
    std::string error;
    faults.addEvent(
        *fault::FaultPlan::parseAt("0:handler-crash:7", &error));
    sim::Simulation sim(sim::RunContext{.faults = &faults});
    Fabric fabric(sim);
    active::ActiveConfig acfg;
    acfg.cpus = 4;
    const Topology topo = buildFatTree<active::ActiveSwitch>(
        fabric, FatTreeParams{4}, acfg);
    fabric.applyShardPlan(fabric.planShards(topo.switchCount()));
    obs::ShardedFingerprint fp;
    fp.attach(sim);

    const NodeId collector = topo.hosts[0]->id();
    for (Switch *sw : topo.edge)
        static_cast<active::ActiveSwitch *>(sw)->registerHandler(
            kFilterHandler, "filter",
            [collector](active::HandlerContext &ctx) {
                return hubFilter(ctx, collector);
            });

    // Two hosts per edge switch, each on its own handler instance:
    // only the first launch on a switch meets the event.
    const std::uint64_t pkts = (4096 + fabric.mtu() - 1) / fabric.mtu();
    const sim::Tick spacing = sim::ns(4096 + pkts * headerBytes);
    const unsigned n = static_cast<unsigned>(topo.hosts.size());
    for (unsigned h = 1; h < n; ++h) {
        ActiveHeader hdr;
        hdr.handlerId = kFilterHandler;
        hdr.cpuId = static_cast<std::uint8_t>(h % 2);
        sim::ShardGuard guard(sim, fabric.shardOf(*topo.hosts[h]));
        sim.spawn(hubSender(*topo.hosts[h], topo.edge[h / 2]->id(), hdr,
                            h, spacing));
    }
    HubRun hub;
    {
        sim::ShardGuard guard(sim, fabric.shardOf(*topo.hosts[0]));
        sim.spawn(hubCollector(*topo.hosts[0], 4u * (n - 1), &hub));
    }
    sim.runSharded(workers);

    CrashRun r;
    r.fingerprint = fp.value();
    r.collectorBytes = hub.collectorBytes;
    for (Switch *sw : topo.edge) {
        const auto *as = static_cast<active::ActiveSwitch *>(sw);
        r.failovers += as->handlerFailovers();
        r.launchers += as->handlersInvoked() > 0;
    }
    return r;
}

TEST(ShardedRun, HandlerCrashEventHitsEachLaunchingSwitchOnce)
{
    const CrashRun two = edgeCrashRun(2);
    EXPECT_EQ(two.launchers, 8u);
    EXPECT_EQ(two.failovers, two.launchers);
    EXPECT_EQ(two.collectorBytes, 15360u);
    for (unsigned repeat = 0; repeat < 5; ++repeat) {
        const CrashRun four = edgeCrashRun(4);
        EXPECT_EQ(four.fingerprint, two.fingerprint) << "repeat " << repeat;
        EXPECT_EQ(four.failovers, four.launchers) << "repeat " << repeat;
        EXPECT_EQ(four.launchers, two.launchers) << "repeat " << repeat;
        EXPECT_EQ(four.collectorBytes, 15360u) << "repeat " << repeat;
    }
}

TEST(ShardedRun, OneComponentPerShardStress)
{
    sim::Simulation probe;
    Fabric probeFabric(probe);
    const Topology t = buildFatTree(probeFabric, FatTreeParams{4});
    const std::size_t units =
        t.switchCount() + probeFabric.adapters().size();

    const std::uint64_t w1 = fatTreeRun(5, units, 1);
    const std::uint64_t w4 = fatTreeRun(5, units, 4);
    EXPECT_EQ(w1, w4);
}

// ---------------------------------------------------------------
// Figure workloads: threaded and unthreaded runs must compute the
// same simulation (same checksum / end time / event count); the
// threaded fingerprint is stable across worker counts.
// ---------------------------------------------------------------

TEST(ShardedApps, Fig16ReductionSemanticsMatchUnthreaded)
{
    apps::ReductionParams params;
    params.nodes = 16;
    const apps::ReductionRun base =
        runReduction(true, apps::ReduceKind::Distributed, params);

    params.threads = 2;
    const apps::ReductionRun two =
        runReduction(true, apps::ReduceKind::Distributed, params);
    params.threads = 4;
    const apps::ReductionRun four =
        runReduction(true, apps::ReduceKind::Distributed, params);
    const apps::ReductionRun fourAgain =
        runReduction(true, apps::ReduceKind::Distributed, params);

    EXPECT_TRUE(base.correct);
    EXPECT_TRUE(two.correct);
    EXPECT_TRUE(four.correct);
    EXPECT_EQ(base.checksum, two.checksum);
    EXPECT_EQ(base.checksum, four.checksum);
    EXPECT_EQ(base.latency, two.latency);
    EXPECT_EQ(base.latency, four.latency);
    // Cross-shard handoffs add events (message delivery, deferred
    // credit flits), so the sharded total exceeds the sequential
    // one — but it is one number for every worker count.
    EXPECT_EQ(two.events, four.events);
    EXPECT_GE(two.events, base.events);
    // The shard partition is per-switch regardless of the worker
    // count, so the merged digest is one value for all N > 1 and
    // stable across repeats.
    EXPECT_EQ(two.fingerprint, four.fingerprint);
    EXPECT_EQ(four.fingerprint, fourAgain.fingerprint);
    EXPECT_NE(four.fingerprint, 0u);

    // Normal (host-tree) mode shards the same way.
    params.threads = 1;
    const apps::ReductionRun nbase =
        runReduction(false, apps::ReduceKind::Distributed, params);
    params.threads = 4;
    const apps::ReductionRun nfour =
        runReduction(false, apps::ReduceKind::Distributed, params);
    EXPECT_EQ(nbase.checksum, nfour.checksum);
    EXPECT_EQ(nbase.latency, nfour.latency);
    EXPECT_GE(nfour.events, nbase.events);
}

TEST(ShardedApps, Fig16ReductionDigestIsPinned)
{
    apps::ReductionParams params;
    params.nodes = 16;
    params.threads = 4;
    EXPECT_EQ(runReduction(true, apps::ReduceKind::Distributed, params)
                  .fingerprint,
              0xe11c421de18319f4ull);
}

/** Records the simulation clock each Cluster reports after its run. */
struct ClockObserver {
    ClockObserver()
    {
        apps::clusterObserver() = [this](apps::Cluster &c, apps::Mode) {
            now = c.sim().now();
        };
    }
    ~ClockObserver() { apps::clusterObserver() = nullptr; }
    sim::Tick now = 0;
};

TEST(ShardedApps, Fig03MpegSemanticsMatchUnthreaded)
{
    apps::MpegParams params;
    params.fileBytes = 256 * 1024; // --quick-sized, tests stay fast
    const apps::RunStats base =
        runMpegFilter(apps::Mode::ActivePref, params);

    // After a run, now() outside any shard context is the simulation
    // clock: the latest shard clock, which is also the run's end.
    ClockObserver clock;
    params.cluster.threads = 2;
    const apps::RunStats two =
        runMpegFilter(apps::Mode::ActivePref, params);
    EXPECT_EQ(clock.now, two.execTime);
    params.cluster.threads = 4;
    const apps::RunStats four =
        runMpegFilter(apps::Mode::ActivePref, params);
    EXPECT_EQ(clock.now, four.execTime);
    const apps::RunStats fourAgain =
        runMpegFilter(apps::Mode::ActivePref, params);

    EXPECT_EQ(base.checksum, two.checksum);
    EXPECT_EQ(base.checksum, four.checksum);
    EXPECT_EQ(base.execTime, two.execTime);
    EXPECT_EQ(base.execTime, four.execTime);
    EXPECT_EQ(base.hostIoBytes, two.hostIoBytes);
    EXPECT_EQ(base.hostIoBytes, four.hostIoBytes);
    EXPECT_EQ(two.eventsExecuted, four.eventsExecuted);
    EXPECT_GE(two.eventsExecuted, base.eventsExecuted);
    EXPECT_EQ(two.fingerprint, four.fingerprint);
    EXPECT_EQ(four.fingerprint, fourAgain.fingerprint);
}

TEST(ShardedApps, Fig03MpegDigestIsPinned)
{
    apps::MpegParams params;
    params.fileBytes = 256 * 1024;
    params.cluster.threads = 4;
    EXPECT_EQ(runMpegFilter(apps::Mode::ActivePref, params).fingerprint,
              0x11db16dee3ee004full);
}

// ---------------------------------------------------------------
// Shard context: outside a worker or ShardGuard, a one-shard
// simulation resolves to shard 0 (every sequential test relies on
// it); a multi-shard one has no default shard, so scheduling or
// spawning there is an error in every build.
// ---------------------------------------------------------------

sim::Task
tick(sim::Tick delay, int *ran)
{
    co_await sim::Delay{delay};
    ++*ran;
}

TEST(ShardContext, MultiShardRejectsSchedulingOutsideContext)
{
    sim::Simulation sim;
    sim.enableSharding(2, 10);
    int ran = 0;
    EXPECT_THROW(sim.events().after(5, [&ran] { ++ran; }),
                 std::logic_error);
    EXPECT_THROW(sim.spawn(tick(5, &ran)), std::logic_error);

    // Under a guard the same calls land on the named shard and run.
    {
        sim::ShardGuard guard(sim, 1);
        sim.events().after(5, [&ran] { ++ran; });
        sim.spawn(tick(7, &ran));
    }
    EXPECT_EQ(sim.runSharded(2), 7u);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sim.now(), 7u);
    EXPECT_EQ(sim.executedEvents(), 2u);
}

// A window capped at maxTick (one shard's unbounded window, or a
// saturated horizon) must still run the events at maxTick itself.
TEST(ShardContext, RunExecutesEventsAtMaxTick)
{
    int ran = 0;
    sim::Simulation one;
    one.events().schedule(sim::maxTick, [&ran] { ++ran; });
    EXPECT_EQ(one.run(), sim::maxTick);
    EXPECT_EQ(ran, 1);

    sim::Simulation two;
    two.enableSharding(2, 10);
    {
        sim::ShardGuard guard(two, 1);
        two.events().schedule(sim::maxTick, [&ran] { ++ran; });
    }
    EXPECT_EQ(two.runSharded(2), sim::maxTick);
    EXPECT_EQ(ran, 2);
}

// ---------------------------------------------------------------
// Warnings. Every shard warns at tick 5 and shard 0 again at tick 100,
// a later round, so execution order and shard order differ.
// ---------------------------------------------------------------

sim::Task
warnFrom(sim::Simulation &sim, std::size_t shard, bool again)
{
    const std::string component = "shard" + std::to_string(shard);
    co_await sim::Delay{5};
    sim.warn(component, "first");
    if (!again)
        co_return;
    co_await sim::Delay{95};
    sim.warn(component, "second");
}

/** Spawn warnFrom for shards 3, 1, 0 and 2, on their own shards of a
 *  4-shard simulation or all on a one-shard one; run on @p workers
 *  workers and return what the run printed on stderr. */
std::string
warningsOf(std::size_t shards, std::size_t workers)
{
    sim::Simulation sim;
    if (shards > 1)
        sim.enableSharding(shards, 10);
    for (const std::size_t s : {3, 1, 0, 2}) {
        sim::ShardGuard guard(sim, shards > 1 ? s : 0);
        sim.spawn(warnFrom(sim, s, s == 0));
    }
    testing::internal::CaptureStderr();
    sim.runSharded(workers);
    return testing::internal::GetCapturedStderr();
}

TEST(ShardWarnings, MultiShardRunPrintsThemInShardOrder)
{
    const std::string expected = "[warn] t=5ps shard0: first\n"
                                 "[warn] t=100ps shard0: second\n"
                                 "[warn] t=5ps shard1: first\n"
                                 "[warn] t=5ps shard2: first\n"
                                 "[warn] t=5ps shard3: first\n";
    for (const std::size_t workers : {1, 2, 4})
        for (int repeat = 0; repeat < 5; ++repeat)
            EXPECT_EQ(warningsOf(4, workers), expected)
                << workers << " workers, repeat " << repeat;
}

TEST(ShardWarnings, RunEndingInAnErrorStillPrintsThem)
{
    sim::Simulation sim;
    sim.enableSharding(2, 10);
    {
        sim::ShardGuard guard(sim, 1);
        sim.spawn(warnFrom(sim, 1, false));
        sim.events().schedule(50, [] { throw std::runtime_error("boom"); });
    }
    testing::internal::CaptureStderr();
    EXPECT_THROW(sim.runSharded(2), std::runtime_error);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "[warn] t=5ps shard1: first\n");
}

TEST(ShardWarnings, OneShardRunPrintsThemInExecutionOrder)
{
    EXPECT_EQ(warningsOf(1, 1), "[warn] t=5ps shard3: first\n"
                                "[warn] t=5ps shard1: first\n"
                                "[warn] t=5ps shard0: first\n"
                                "[warn] t=5ps shard2: first\n"
                                "[warn] t=100ps shard0: second\n");
}

// ---------------------------------------------------------------
// The round loop's contract, on four bare shards with lookahead 10:
// cross-shard messages arrive in (source shard, post order) order,
// a message is delivered even to a shard with nothing else to do,
// and state scheduled between two runs is seen by the second.
// ---------------------------------------------------------------

TEST(RoundLoop, SameStampMessagesRunInSourceThenPostOrder)
{
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        sim::Simulation sim;
        sim.enableSharding(4, 10);
        // Only shard 3 appends, so the log needs no lock.
        std::vector<int> log;
        // Shards 2, 0 and 1 each post two messages to shard 3 in
        // round 0 (all at tick 5), all stamped 15.
        for (const int src : {2, 0, 1}) {
            sim::ShardGuard guard(sim, static_cast<std::size_t>(src));
            sim.events().schedule(5, [&sim, &log, src] {
                for (int k = 0; k < 2; ++k)
                    sim.crossSchedule(3, 15, [&log, src, k] {
                        log.push_back(src * 10 + k);
                    });
            });
        }
        EXPECT_EQ(sim.runSharded(workers), 15u);
        EXPECT_EQ(log, (std::vector<int>{0, 1, 10, 11, 20, 21}))
            << workers << " workers";
    }
}

TEST(RoundLoop, MessageToEmptyShardRunsAtItsStamp)
{
    sim::Simulation sim;
    sim.enableSharding(4, 10);
    sim::Tick ranAt = 0;
    {
        // Shard 0 posts to shard 2, whose queue is empty, for tick
        // 1000 — many windows past the first horizon (11).
        sim::ShardGuard guard(sim, 0);
        sim.events().schedule(1, [&sim, &ranAt] {
            sim.crossSchedule(2, 1000, [&sim, &ranAt] {
                ranAt = sim.now();
            });
        });
    }
    {
        // Shard 1 keeps the floor low with an event every 10 ticks,
        // so the message waits in shard 2's queue for many rounds.
        sim::ShardGuard guard(sim, 1);
        for (sim::Tick t = 5; t < 500; t += 10)
            sim.events().schedule(t, [] {});
    }
    EXPECT_EQ(sim.runSharded(4), 1000u);
    EXPECT_EQ(ranAt, 1000u);
    EXPECT_EQ(sim.shardQueue(2).now(), 1000u);
    EXPECT_EQ(sim.executedEvents(), 1u + 50u + 1u);
}

TEST(RoundLoop, SecondRunSeesWorkOnAShardIdleInTheFirst)
{
    sim::Simulation sim;
    sim.enableSharding(4, 10);
    {
        sim::ShardGuard guard(sim, 0);
        sim.events().schedule(5, [] {});
    }
    EXPECT_EQ(sim.runSharded(2), 5u);

    // Shard 3 sat idle through the first run. Its tick-50 event posts
    // to shard 1, which answers at 70, before shard 3's own event at
    // 100: the reply only lands first if the second run's windows
    // see shard 3's queue from the start.
    std::vector<sim::Tick> log;
    {
        sim::ShardGuard guard(sim, 3);
        sim.events().schedule(50, [&sim, &log] {
            sim.crossSchedule(1, 60, [&sim, &log] {
                sim.crossSchedule(3, 70, [&sim, &log] {
                    log.push_back(sim.now());
                });
            });
        });
        sim.events().schedule(100, [&sim, &log] {
            log.push_back(sim.now());
        });
    }
    EXPECT_EQ(sim.runSharded(2), 100u);
    EXPECT_EQ(log, (std::vector<sim::Tick>{70, 100}));
    EXPECT_EQ(sim.executedEvents(), 1u + 4u);
}

TEST(RoundLoop, MessagePostedBeforeTheRunRunsAtItsStamp)
{
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        sim::Simulation sim;
        sim.enableSharding(4, 10);
        // Build code posts from shard 1 to shard 3; no queue holds an
        // event, so only the posted mail makes the run do anything.
        sim::Tick ranAt = 0;
        {
            sim::ShardGuard guard(sim, 1);
            sim.crossSchedule(3, 40,
                              [&sim, &ranAt] { ranAt = sim.now(); });
        }
        EXPECT_EQ(sim.runSharded(workers), 40u) << workers << " workers";
        EXPECT_EQ(ranAt, 40u) << workers << " workers";
        EXPECT_EQ(sim.executedEvents(), 1u) << workers << " workers";
    }
}

/**
 * Two message chains relayed round the shards 3 -> 64 -> 99 -> 3 of
 * a 100-shard set, nine hops each; each hop logs (tick, chain * 100 +
 * hop) on the shard it lands on. Only shard s appends to log[s].
 */
struct Relay {
    sim::Simulation &sim;
    std::vector<std::vector<std::pair<sim::Tick, int>>> log;

    void
    hop(std::size_t at, int chain, int hops)
    {
        log[at].emplace_back(sim.now(), chain * 100 + hops);
        if (hops == 9)
            return;
        const std::size_t next = at == 3 ? 64 : at == 64 ? 99 : 3;
        sim.crossSchedule(next, sim.now() + 10 + at % 7,
                          [this, next, chain, hops] {
                              hop(next, chain, hops + 1);
                          });
    }
};

TEST(RoundLoop, SparseShardsOfAHundredTradeMail)
{
    std::vector<std::vector<std::pair<sim::Tick, int>>> first;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        sim::Simulation sim;
        sim.enableSharding(100, 10);
        Relay relay{sim, {}};
        relay.log.resize(100);
        {
            // Shards 64 and 99 start empty: until shard 99's own
            // event at 500, mail is all the work they get.
            sim::ShardGuard guard(sim, 3);
            sim.events().schedule(5, [&relay] { relay.hop(3, 1, 0); });
            sim.events().schedule(8, [&relay] { relay.hop(3, 2, 0); });
        }
        {
            sim::ShardGuard guard(sim, 99);
            sim.events().schedule(500, [&relay, &sim] {
                relay.log[99].emplace_back(sim.now(), -1);
            });
        }
        EXPECT_EQ(sim.runSharded(workers), 500u) << workers << " workers";
        // Two kicks, nine relayed hops per chain, one late event.
        EXPECT_EQ(sim.executedEvents(), 2u + 18u + 1u)
            << workers << " workers";
        // A hop round the cycle takes 13 + 11 + 11 ticks.
        EXPECT_EQ(relay.log[3].back(),
                  (std::pair<sim::Tick, int>{113, 209}));
        EXPECT_EQ(relay.log[99].back(),
                  (std::pair<sim::Tick, int>{500, -1}));
        for (std::size_t s = 0; s < 100; ++s) {
            if (s != 3 && s != 64 && s != 99) {
                EXPECT_TRUE(relay.log[s].empty()) << "shard " << s;
            }
        }
        if (first.empty())
            first = relay.log;
        else
            EXPECT_EQ(relay.log, first) << workers << " workers";
    }
}

} // namespace
