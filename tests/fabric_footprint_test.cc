/**
 * @file
 * Construction footprint of the network and active-switch layers: a
 * fabric allocates for what a run can use, not for what it could
 * hold. Every allocation in this binary is counted (CountingNew.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "CountingNew.hh"
#include "active/ActiveSwitch.hh"
#include "net/Fabric.hh"
#include "net/Switch.hh"
#include "net/SwitchPolicy.hh"
#include "net/Topology.hh"
#include "sim/Simulation.hh"

namespace {

using namespace san;
using san::test::allocatedBytes;
using san::test::allocations;

/**
 * The default switch runs the unbounded central output queue, a
 * passthrough onto its output links: building it allocates the policy
 * object and its per-input forward counters, and no queue storage.
 */
TEST(FabricFootprint, DefaultPolicyHoldsNoQueues)
{
    sim::Simulation sim;
    net::Switch sw(sim, "sw", 0, net::SwitchParams{});
    ASSERT_EQ(sw.params().ports, 8u);
    const std::uint64_t calls = allocations;
    const std::uint64_t bytes = allocatedBytes;
    const auto policy = net::makeQueueingPolicy(sw, net::SwitchPolicyConfig{});
    const std::uint64_t made = allocations - calls;
    const std::uint64_t took = allocatedBytes - bytes;
    EXPECT_TRUE(policy->isPassthrough());
    EXPECT_LE(made, 2u);
    EXPECT_LT(took, 512u);
}

sim::Task
idleHandler(active::HandlerContext &ctx)
{
    for (;;) {
        const active::StreamChunk chunk = co_await ctx.nextChunk();
        ctx.deallocateOne(chunk.address);
    }
}

/**
 * Allocations to build the repository benchmark's hub shape: a k=8
 * fat-tree of 4-CPU active switches (80 switches, 128 hosts, 768
 * links) with one handler registered, routed, and cut one shard per
 * switch.
 */
std::uint64_t
hubShapeBuildAllocations()
{
    const std::uint64_t before = allocations;
    sim::Simulation sim;
    net::Fabric fabric(sim);
    active::ActiveConfig acfg;
    acfg.cpus = 4;
    const net::Topology topo = net::buildFatTree<active::ActiveSwitch>(
        fabric, net::FatTreeParams{8}, acfg);
    static_cast<active::ActiveSwitch *>(topo.core[0])
        ->registerHandler(7, "filter", idleHandler);
    fabric.applyShardPlan(fabric.planShards(topo.switchCount()));
    return allocations - before;
}

/**
 * Pins the hub shape's build at its measured allocation count plus
 * 25 % headroom, so a change that makes every switch, link or route
 * table allocate up front again fails here.
 */
TEST(FabricFootprint, HubShapeBuildStaysUnderPinnedAllocations)
{
    const std::uint64_t measured = 3437; // gcc 12, libstdc++
    EXPECT_LE(hubShapeBuildAllocations(), measured + measured / 4);
}

} // namespace
