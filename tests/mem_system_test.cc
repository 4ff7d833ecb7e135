/**
 * @file
 * Tests for the composed MemorySystem hierarchy.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "CountingNew.hh"
#include "MemReference.hh"
#include "mem/LruSet.hh"
#include "mem/MemorySystem.hh"
#include "sim/Random.hh"

namespace {

using namespace san::mem;
using namespace san::sim;
using san::test::allocatedBytes;
using san::test::allocations;
using san::test::RefMemorySystem;

TEST(MemorySystem, PresetGeometriesMatchPaper)
{
    auto host = hostMemoryParams();
    EXPECT_EQ(host.l1d.size, 32u * 1024);
    EXPECT_EQ(host.l1d.assoc, 2u);
    ASSERT_TRUE(host.l2.has_value());
    EXPECT_EQ(host.l2->size, 512u * 1024);
    EXPECT_EQ(host.l2->lineSize, 128u);

    auto scaled = scaledHostMemoryParams();
    EXPECT_EQ(scaled.l1d.size, 8u * 1024);
    EXPECT_EQ(scaled.l2->size, 64u * 1024);

    auto sw = switchMemoryParams();
    EXPECT_EQ(sw.l1i.size, 4u * 1024);
    EXPECT_EQ(sw.l1i.lineSize, 64u);
    EXPECT_EQ(sw.l1d.size, 1u * 1024);
    EXPECT_EQ(sw.l1d.lineSize, 32u);
    EXPECT_FALSE(sw.l2.has_value());
    EXPECT_EQ(sw.overlapDepth, 1u);
}

TEST(MemorySystem, HitAfterFillIsFree)
{
    MemorySystem ms(hostMemoryParams());
    Tick first = ms.dataAccess(0x10000, 8, AccessKind::Load, 0);
    EXPECT_GT(first, 0u);
    Tick second = ms.dataAccess(0x10000, 8, AccessKind::Load, first);
    EXPECT_EQ(second, 0u);
}

TEST(MemorySystem, L2HitCheaperThanDram)
{
    auto params = hostMemoryParams();
    MemorySystem ms(params);
    // Fill a line, then evict it from tiny L1 by touching conflicting
    // lines, so the next access hits in L2.
    const Addr target = 0;
    ms.dataAccess(target, 8, AccessKind::Load, 0);
    // L1D is 32 KB 2-way with 128 B lines -> 128 sets; lines 0,
    // 16K, 32K... share set 0. Touch 2 more to evict `target`.
    ms.dataAccess(16 * 1024, 8, AccessKind::Load, 0);
    ms.dataAccess(32 * 1024, 8, AccessKind::Load, 0);
    EXPECT_FALSE(ms.l1d().contains(target));
    EXPECT_TRUE(ms.l2()->contains(target));
    Tick l2hit = ms.dataAccess(target, 8, AccessKind::Load, us(1));
    EXPECT_EQ(l2hit, params.l2HitLatency);
}

TEST(MemorySystem, StoresOverlapLoadsDoNot)
{
    MemorySystem loads(hostMemoryParams());
    MemorySystem stores(hostMemoryParams());
    // Touch pages first so TLB walks don't skew the comparison.
    loads.dataAccess(0, 1, AccessKind::Load, 0);
    stores.dataAccess(0, 1, AccessKind::Load, 0);

    Tick lstall = loads.dataAccess(8192, 4096, AccessKind::Load, us(1));
    Tick sstall = stores.dataAccess(8192, 4096, AccessKind::Store, us(1));
    EXPECT_GT(lstall, sstall);
    // Four-deep overlap: stores should be roughly a quarter.
    EXPECT_NEAR(static_cast<double>(sstall) / lstall, 0.25, 0.15);
}

TEST(MemorySystem, TlbMissChargesWalk)
{
    auto params = hostMemoryParams();
    MemorySystem ms(params);
    // Warm the data line and the PTE line.
    ms.dataAccess(0x5000, 1, AccessKind::Load, 0);
    EXPECT_EQ(ms.dtlb().misses(), 1u);
    // Warm re-access: everything hits, zero stall.
    EXPECT_EQ(ms.dataAccess(0x5000, 1, AccessKind::Load, us(1)), 0u);
    // Drop only the translation: the same access now pays exactly the
    // walk overhead (the PTE itself is L1-resident).
    ms.dtlb().flush();
    Tick walk_only = ms.dataAccess(0x5000, 1, AccessKind::Load, us(2));
    EXPECT_EQ(walk_only, params.tlbWalkOverhead);
    EXPECT_EQ(ms.dtlb().misses(), 2u);
}

TEST(MemorySystem, SwitchHierarchyHasNoL2)
{
    MemorySystem ms(switchMemoryParams());
    EXPECT_EQ(ms.l2(), nullptr);
    Tick stall = ms.dataAccess(0x100, 1, AccessKind::Load, 0);
    // Must include a full DRAM round trip (>= 122ns page miss).
    EXPECT_GE(stall, ns(122));
}

TEST(MemorySystem, InstFetchFillsICache)
{
    MemorySystem ms(hostMemoryParams());
    Tick first = ms.instFetch(0x400000, 256, 0);
    EXPECT_GT(first, 0u);
    Tick second = ms.instFetch(0x400000, 256, first);
    EXPECT_EQ(second, 0u);
    EXPECT_GT(ms.l1i().hits(), 0u);
}

TEST(MemorySystem, StreamingLargeBufferCostScalesWithLines)
{
    MemorySystem ms(hostMemoryParams());
    // Stream 1 MB: every 128 B line misses (working set >> L2).
    Tick stall = ms.dataAccess(0, MiB, AccessKind::Load, 0);
    // At least DRAM bandwidth cost: 1 MB / 1.6 GB/s = 655 us.
    EXPECT_GE(stall, us(600));
    // Data lines plus the page-table entry lines pulled in by walks
    // (256 pages x 8 B PTEs = 16 extra lines).
    EXPECT_GE(ms.l1d().misses(), MiB / 128);
    EXPECT_LE(ms.l1d().misses(), MiB / 128 + 16);
}

/**
 * Once every line and page of a working set has been seen, further
 * accesses within it only move lines between the tag arrays, the
 * miss-classification shadow and the TLBs: nothing is allocated.
 * The working set is far larger than every cache and TLB, so the
 * measured accesses miss, classify and evict at every level.
 */
TEST(MemorySystem, WarmAccessesDoNotAllocate)
{
    for (const MemorySystemParams &params :
         {scaledHostMemoryParams(), switchMemoryParams()}) {
        SCOPED_TRACE(params.name);
        MemorySystem ms(params);
        const std::uint64_t ws = 8 * MiB;
        Tick now = 0;
        now += ms.dataAccess(0, ws, AccessKind::Load, now);

        Random rng(42);
        const std::uint64_t before = allocations;
        for (int i = 0; i < 100000; ++i) {
            const Addr a = rng.below(ws - 256);
            const auto kind = static_cast<AccessKind>(rng.below(3));
            now += ms.dataAccess(a, 1 + rng.below(256), kind, now);
        }
        const std::uint64_t allocated = allocations - before;
        EXPECT_EQ(allocated, 0u);
        EXPECT_GT(ms.l1d().capacityMisses(), 0u);
        EXPECT_GT(ms.l1d().conflictMisses(), 0u);
        EXPECT_GT(ms.dtlb().misses(), ws / params.pageSize);
    }
}

/**
 * A memory model takes its storage when a run first uses it. The
 * paper's host hierarchy (two 32 KB L1s and a 512 KB L2 with 128 B
 * lines, two 64-entry TLBs, RDRAM) builds without a tag array, a
 * classification shadow or a bank table; a single access then
 * allocates what that access reaches.
 */
TEST(MemoryFootprint, HostHierarchyBuildsWithoutStorage)
{
    const MemorySystemParams params = hostMemoryParams();
    const std::uint64_t before = allocatedBytes;
    MemorySystem ms(params);
    EXPECT_LT(allocatedBytes - before, 4096u);
    EXPECT_GT(ms.dataAccess(0, 8, AccessKind::Load, 0), 0u);
    EXPECT_EQ(ms.dataAccess(0, 8, AccessKind::Load, 0), 0u);
}

/**
 * An LRU set's storage grows with the keys it holds: one of capacity
 * 4096 (the host L2 shadow's line count) that has seen 16 keys owns
 * under 4 KB, where sizing it for its capacity would take 160 KB.
 */
TEST(MemoryFootprint, LruSetGrowsWithTheKeysItHolds)
{
    const std::uint64_t before = allocatedBytes;
    LruSet lru(4096);
    for (std::uint64_t k = 0; k < 16; ++k)
        EXPECT_FALSE(lru.touch(k * 4096));
    EXPECT_LT(allocatedBytes - before, 4096u);
    for (std::uint64_t k = 0; k < 16; ++k)
        EXPECT_TRUE(lru.touch(k * 4096));
}

/**
 * Differential oracle for the composed hierarchy: MemorySystem and
 * RefMemorySystem (tests/MemReference.hh), which steps lines, pages
 * and banks with `/` and `%`, take the same seeded calls at advancing
 * ticks. Each call is an instruction fetch or a load, store or
 * prefetch of 1 B to 8 KB, half of them into a hot 24 KB region and
 * half anywhere in 16 MB, so they cross lines and pages, walk, fill
 * from L2 and DRAM, write back and overlap. The ticks sometimes
 * advance less than the last stall, so the DRAM channel is still
 * busy. Every stall must match, and at the end every counter of both
 * L1s, the L2, both TLBs and the RDRAM.
 */
TEST(MemorySystemOracle, MatchesReferenceCallForCall)
{
    constexpr int calls = 20000;
    constexpr Addr codeBase = 0x400000, hotBase = 0x10000000,
                   dataBase = 0x20000000;
    for (const MemorySystemParams &params :
         {hostMemoryParams(), scaledHostMemoryParams(),
          switchMemoryParams()}) {
        SCOPED_TRACE(params.name);
        MemorySystem model(params);
        RefMemorySystem ref(params);
        Random rng(params.l1d.size + params.l1i.lineSize);
        Tick now = 0;
        for (int i = 0; i < calls; ++i) {
            const std::uint64_t bytes =
                1 + rng.below(rng.chance(0.5) ? 256 : 8192);
            const std::uint64_t op = rng.below(4);
            Tick got = 0, want = 0;
            Addr a = 0;
            if (op == 3) {
                a = codeBase + rng.below(256 * 1024);
                got = model.instFetch(a, bytes, now);
                want = ref.instFetch(a, bytes, now);
            } else {
                const auto kind = static_cast<AccessKind>(op);
                a = rng.chance(0.5) ? hotBase + rng.below(24 * 1024)
                                    : dataBase + rng.below(16 * MiB);
                got = model.dataAccess(a, bytes, kind, now);
                want = ref.dataAccess(a, bytes, kind, now);
            }
            if (got != want) {
                ADD_FAILURE() << "call " << i << " op " << op << " addr "
                              << a << " bytes " << bytes << ": stall "
                              << got << "/" << want;
                return;
            }
            now += rng.below(2 * got + ns(50));
        }
        const auto sameCache = [](const char *name, Cache &c,
                                  const san::test::RefCache &r) {
            SCOPED_TRACE(name);
            EXPECT_EQ(c.hits(), r.hits_);
            EXPECT_EQ(c.misses(), r.misses_);
            EXPECT_EQ(c.coldMisses(), r.cold_);
            EXPECT_EQ(c.capacityMisses(), r.capacity_);
            EXPECT_EQ(c.conflictMisses(), r.conflict_);
            EXPECT_EQ(c.writebacks(), r.writebacks_);
        };
        sameCache("l1i", model.l1i(), ref.l1i_);
        sameCache("l1d", model.l1d(), ref.l1d_);
        ASSERT_EQ(model.l2() != nullptr, ref.l2_.has_value());
        if (model.l2())
            sameCache("l2", *model.l2(), *ref.l2_);
        EXPECT_EQ(model.itlb().hits(), ref.itlb_.hits_);
        EXPECT_EQ(model.itlb().misses(), ref.itlb_.misses_);
        EXPECT_EQ(model.dtlb().hits(), ref.dtlb_.hits_);
        EXPECT_EQ(model.dtlb().misses(), ref.dtlb_.misses_);
        EXPECT_EQ(model.dram().pageHits(), ref.dram_.pageHits_);
        EXPECT_EQ(model.dram().pageMisses(), ref.dram_.pageMisses_);
        EXPECT_EQ(model.dram().bytesTransferred(),
                  ref.dram_.bytesTransferred_);
        EXPECT_EQ(model.stallTicks(), ref.stall_);
        // The calls reached every path the oracle is for.
        EXPECT_GT(model.l1d().writebacks(), 0u);
        EXPECT_GT(model.dram().pageHits(), 0u);
        EXPECT_GT(model.dram().pageMisses(), 0u);
        EXPECT_GT(model.dtlb().misses(), 0u);
        EXPECT_GT(model.itlb().misses(), 0u);
    }
}

TEST(MemorySystem, StallTicksAccumulate)
{
    MemorySystem ms(hostMemoryParams());
    Tick a = ms.dataAccess(0, 4096, AccessKind::Load, 0);
    Tick b = ms.instFetch(0x800000, 1024, a);
    EXPECT_EQ(ms.stallTicks(), a + b);
}

} // namespace
